package rundoc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Flatten decodes a run or sweep document and returns every gated numeric
// value keyed by its JSON path: object fields join with ".", and a list
// element contributes the values of its gate:"key" fields instead of its
// index (telemetry.census.stalls.trcd.cycles, energy_by_channel.0.banks.3.
// ams_drops, runs.SCP.Baseline.ipc), so a new element never renames the
// others. A document with a "sweep" or "runs" member is read as a SweepDoc,
// anything else as a Doc.
//
// The walk follows the Go type beside the decoded JSON. A member the type
// does not declare, or a value of the wrong JSON kind, is an input error,
// so nothing reaches the gate unnamed and nothing is silently left out of
// it. A member missing from the bytes produces no key (lazycmp reports it
// unmatched) rather than a zero, except a number tagged omitempty: its
// encoder leaves out exactly the zeros, so absent it reads as 0, and a
// gated value that falls to zero still fails the gate. Strings and bools
// are identity, not metrics. Numbers may also be string-encoded, as delta
// documents and the expvar exposition write NaN and ±Inf; a non-finite
// value is returned in skipped instead of the map, where a NaN would
// neither equal itself nor encode as JSON.
func Flatten(raw []byte) (metrics map[string]float64, skipped []string, err error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var top any
	if err := dec.Decode(&top); err != nil {
		return nil, nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, nil, fmt.Errorf("trailing data after the document")
	}
	m, ok := top.(map[string]any)
	if !ok {
		return nil, nil, fmt.Errorf("document is not a JSON object")
	}
	schema := reflect.TypeOf(Doc{})
	_, sweep := m["sweep"]
	_, runs := m["runs"]
	if sweep || runs {
		schema = reflect.TypeOf(SweepDoc{})
	}
	f := flattener{metrics: make(map[string]float64), fields: make(map[reflect.Type]map[string]field)}
	if err := f.walk("", m, schema); err != nil {
		return nil, nil, err
	}
	sort.Strings(f.skipped)
	return f.metrics, f.skipped, nil
}

// field is one JSON member of a struct type as Flatten sees it.
type field struct {
	typ  reflect.Type
	gate string // "", "-" (ungated) or "key" (list-element identity)
	// zero marks a gated number tagged omitempty: absent, it is 0.
	zero bool
}

type flattener struct {
	metrics map[string]float64
	skipped []string
	fields  map[reflect.Type]map[string]field
}

func (f *flattener) walk(path string, v any, t reflect.Type) error {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if v == nil { // JSON null decodes to nothing, like an absent member
		return nil
	}
	switch t.Kind() {
	case reflect.Struct:
		obj, ok := v.(map[string]any)
		if !ok {
			return fmt.Errorf("%s: want a JSON object", describe(path))
		}
		fields := f.fieldsOf(t)
		for name, x := range obj {
			fd, ok := fields[name]
			if !ok {
				return fmt.Errorf("%s: not a field of %s", join(path, name), t)
			}
			if fd.gate != "" {
				continue
			}
			if err := f.walk(join(path, name), x, fd.typ); err != nil {
				return err
			}
		}
		for name, fd := range fields {
			if _, ok := obj[name]; !ok && fd.zero {
				f.metrics[join(path, name)] = 0
			}
		}
	case reflect.Map:
		obj, ok := v.(map[string]any)
		if !ok {
			return fmt.Errorf("%s: want a JSON object", describe(path))
		}
		for name, x := range obj {
			if err := f.walk(join(path, name), x, t.Elem()); err != nil {
				return err
			}
		}
	case reflect.Slice:
		list, ok := v.([]any)
		if !ok {
			return fmt.Errorf("%s: want a JSON array", describe(path))
		}
		et := t.Elem()
		for et.Kind() == reflect.Pointer {
			et = et.Elem()
		}
		keys := keysOf(et)
		if len(keys) == 0 {
			return fmt.Errorf("%s: %s declares no gate:\"key\" field", describe(path), et)
		}
		seen := make(map[string]bool, len(list))
		for i, x := range list {
			id, err := elemKey(x, keys)
			if err != nil {
				return fmt.Errorf("%s[%d]: %w", describe(path), i, err)
			}
			if seen[id] {
				return fmt.Errorf("%s: two elements keyed %q", describe(path), id)
			}
			seen[id] = true
			if err := f.walk(join(path, id), x, et); err != nil {
				return err
			}
		}
	case reflect.String, reflect.Bool:
	default:
		if !numeric(t) {
			return fmt.Errorf("%s: %s has no flattened form", describe(path), t)
		}
		x, err := number(v)
		if err != nil {
			return fmt.Errorf("%s: %w", describe(path), err)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			f.skipped = append(f.skipped, path)
		} else {
			f.metrics[path] = x
		}
	}
	return nil
}

// numeric reports whether t encodes as a JSON number.
func numeric(t reflect.Type) bool {
	k := t.Kind()
	return k >= reflect.Int && k <= reflect.Float64 && k != reflect.Uintptr
}

// fieldsOf indexes a struct type's exported fields by JSON member name.
func (f *flattener) fieldsOf(t reflect.Type) map[string]field {
	if fs, ok := f.fields[t]; ok {
		return fs
	}
	fs := make(map[string]field)
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		name, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
		if !sf.IsExported() || name == "-" {
			continue
		}
		if name == "" {
			name = sf.Name
		}
		gate := sf.Tag.Get("gate")
		omitempty := slices.Contains(strings.Split(opts, ","), "omitempty")
		fs[name] = field{typ: sf.Type, gate: gate, zero: omitempty && gate == "" && numeric(sf.Type)}
	}
	f.fields[t] = fs
	return fs
}

// keysOf returns a struct type's identity members in declaration order.
func keysOf(t reflect.Type) []string {
	if t.Kind() != reflect.Struct {
		return nil
	}
	var keys []string
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Tag.Get("gate") == "key" {
			name, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
			keys = append(keys, name)
		}
	}
	return keys
}

// elemKey joins a list element's identity values with "."; numbers keep
// their encoded text.
func elemKey(v any, keys []string) (string, error) {
	obj, ok := v.(map[string]any)
	if !ok {
		return "", fmt.Errorf("want a JSON object")
	}
	parts := make([]string, len(keys))
	for i, k := range keys {
		switch x := obj[k].(type) {
		case string:
			parts[i] = x
		case json.Number:
			parts[i] = string(x)
		default:
			return "", fmt.Errorf("key member %q missing or not a scalar", k)
		}
	}
	return strings.Join(parts, "."), nil
}

// number reads a JSON number, or a number written as a string.
func number(v any) (float64, error) {
	var s string
	switch x := v.(type) {
	case json.Number:
		s = string(x)
	case string:
		s = x
	default:
		return 0, fmt.Errorf("want a number")
	}
	x, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("want a number, have %q", s)
	}
	return x, nil
}

func join(path, name string) string {
	if path == "" {
		return name
	}
	return path + "." + name
}

func describe(path string) string {
	if path == "" {
		return "document"
	}
	return path
}
