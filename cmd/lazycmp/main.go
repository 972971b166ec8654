// Command lazycmp diffs two lazysim documents (run documents from -json,
// sweep documents from -sweep -json or experiments -runlog) and gates on
// regressions. Every numeric value the document schema gates is compared:
// rundoc.Flatten names each by its JSON path, keys list elements by their
// identity (telemetry.census.stalls.trcd.cycles,
// energy_by_channel.0.banks.3.ams_drops, runs.SCP.Baseline.ipc), and leaves
// out only the fields tagged gate:"-" in the Go types (provenance, seed,
// wall clock, knobs, the hottest-bank top-N). A member the schema does not
// declare is an input error, so a new field is gated from the day it is
// added. lazycmp prints the rows that did not pass plus a summary line, can
// write every row as a machine-readable delta document, and exits non-zero
// when any delta exceeds its threshold.
//
// Usage:
//
//	lazycmp [flags] baseline.json candidate.json
//
//	-max-rel F      allowed |relative delta| for every metric (default 0:
//	                metrics must match exactly)
//	-min-abs F      ignore deltas whose |absolute delta| is below F
//	-thresholds S   per-metric overrides, e.g.
//	                "ipc=0.02,telemetry.stages.*=0.10"; a trailing * matches
//	                by prefix, later entries win ties only by being more
//	                specific (exact > longest prefix)
//	-ignore S       comma-separated metric globs excluded from the
//	                comparison entirely, where no finite threshold works (a
//	                change from exactly 0 has infinite relative delta). Each
//	                * matches any substring, e.g. runs.*.app_error.
//	-json FILE      write the delta document, every row, to FILE ("-" for
//	                stdout)
//	-report-only    always exit 0; print and emit deltas only
//	-fail-on-new    treat metrics present in only one document as failures
//
// An -ignore or -thresholds pattern that matches no metric of either
// document is an input error: a misspelt or renamed key would otherwise
// make its rule a silent no-op.
//
// Non-finite values (NaN, ±Inf — numbers or their string encodings, which
// delta documents and expvar produce) are excluded from the gate with a
// warning: they can neither silently pass an exact-match comparison nor
// emit an unparsable delta.
//
// Exit status: 0 all metrics within thresholds, 1 regression detected,
// 2 usage or input error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"lazydram/internal/buildinfo"
	"lazydram/internal/rundoc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lazycmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		maxRel     = fs.Float64("max-rel", 0, "allowed |relative delta| for every metric (0 = exact match)")
		minAbs     = fs.Float64("min-abs", 0, "ignore deltas with |absolute delta| below this")
		thresholds = fs.String("thresholds", "", `per-metric threshold overrides, e.g. "ipc=0.02,telemetry.stages.*=0.10"`)
		ignore     = fs.String("ignore", "", `comma-separated metric globs to exclude entirely, e.g. "runs.*.app_error"`)
		jsonOut    = fs.String("json", "", `write the machine-readable delta document here ("-" for stdout)`)
		reportOnly = fs.Bool("report-only", false, "never fail: print and emit deltas, exit 0")
		failOnNew  = fs.Bool("fail-on-new", false, "fail when a metric exists in only one document")
		version    = fs.Bool("version", false, "print build provenance and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Get().String())
		return 0
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: lazycmp [flags] baseline.json candidate.json")
		return 2
	}
	th, err := parseThresholds(*thresholds)
	if err != nil {
		fmt.Fprintln(stderr, "lazycmp:", err)
		return 2
	}
	basePath, candPath := fs.Arg(0), fs.Arg(1)
	base, baseSkipped, err := loadMetrics(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "lazycmp:", err)
		return 2
	}
	cand, candSkipped, err := loadMetrics(candPath)
	if err != nil {
		fmt.Fprintln(stderr, "lazycmp:", err)
		return 2
	}
	for _, n := range baseSkipped {
		fmt.Fprintf(stderr, "lazycmp: warning: %s: skipping non-finite metric %s\n", basePath, n)
	}
	for _, n := range candSkipped {
		fmt.Fprintf(stderr, "lazycmp: warning: %s: skipping non-finite metric %s\n", candPath, n)
	}

	pats := parseIgnore(*ignore)
	if err := checkPatterns(pats, th, base, cand); err != nil {
		fmt.Fprintln(stderr, "lazycmp:", err)
		return 2
	}
	ignored := dropIgnored(pats, base, cand)

	doc := compare(base, cand, cmpConfig{maxRel: *maxRel, minAbs: *minAbs, overrides: th})
	doc.Baseline = basePath
	doc.Candidate = candPath
	doc.Ignored = ignored

	printTable(stdout, doc)

	if *jsonOut != "" {
		var w io.Writer = stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintln(stderr, "lazycmp:", err)
				return 2
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(stderr, "lazycmp:", err)
			return 2
		}
	}

	if *reportOnly {
		return 0
	}
	if doc.Failed > 0 || (*failOnNew && doc.Unmatched > 0) {
		return 1
	}
	return 0
}

// loadMetrics reads one run or sweep document and flattens it to the gated
// name -> value map, also returning the names of non-finite metrics it
// refused.
func loadMetrics(path string) (map[string]float64, []string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	m, skipped, err := rundoc.Flatten(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, skipped, nil
}

// parseIgnore splits the -ignore pattern list: exact names or glob patterns
// where each * matches any substring (so runs.*.app_error covers every
// app×scheme row).
func parseIgnore(s string) []string {
	var pats []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			pats = append(pats, p)
		}
	}
	return pats
}

// ignoreMatch reports whether a metric name matches any ignore pattern.
func ignoreMatch(name string, pats []string) bool {
	for _, pat := range pats {
		if globMatch(pat, name) {
			return true
		}
	}
	return false
}

// globMatch reports whether name matches pattern, where each * matches any
// (possibly empty) substring; a pattern with no * must match exactly, so
// both trailing prefixes and mid-string globs like runs.*.app_error work.
func globMatch(pattern, name string) bool {
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return pattern == name
	}
	if !strings.HasPrefix(name, parts[0]) {
		return false
	}
	rest := name[len(parts[0]):]
	for _, part := range parts[1 : len(parts)-1] {
		idx := strings.Index(rest, part)
		if idx < 0 {
			return false
		}
		rest = rest[idx+len(part):]
	}
	return strings.HasSuffix(rest, parts[len(parts)-1])
}

// dropIgnored removes matching metrics from both documents and returns how
// many distinct names were excluded. Unlike a loose threshold, exclusion
// also suppresses the unmatched (one-sided) status, which is what
// nondeterministic keys need under -fail-on-new.
func dropIgnored(pats []string, maps ...map[string]float64) int {
	if len(pats) == 0 {
		return 0
	}
	dropped := make(map[string]bool)
	for _, m := range maps {
		for name := range m {
			if ignoreMatch(name, pats) {
				delete(m, name)
				dropped[name] = true
			}
		}
	}
	return len(dropped)
}

// checkPatterns returns an error for the first -ignore or -thresholds
// pattern that matches no metric of docs.
func checkPatterns(ignore []string, rules []thresholdRule, docs ...map[string]float64) error {
	matchesAny := func(match func(string) bool) bool {
		for _, m := range docs {
			for name := range m {
				if match(name) {
					return true
				}
			}
		}
		return false
	}
	for _, pat := range ignore {
		if !matchesAny(func(name string) bool { return globMatch(pat, name) }) {
			return fmt.Errorf("-ignore pattern %q matches no metric", pat)
		}
	}
	for _, r := range rules {
		if !matchesAny(r.matches) {
			return fmt.Errorf("-thresholds pattern %q matches no metric", r.pattern)
		}
	}
	return nil
}

// thresholdRule is one "-thresholds" entry; Pattern with a trailing *
// matches by prefix.
type thresholdRule struct {
	pattern string
	value   float64
}

func parseThresholds(s string) ([]thresholdRule, error) {
	if s == "" {
		return nil, nil
	}
	var rules []thresholdRule
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("threshold %q: want name=fraction", part)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("threshold %q: bad fraction %q", part, val)
		}
		rules = append(rules, thresholdRule{pattern: strings.TrimSpace(name), value: f})
	}
	return rules, nil
}

// matches reports whether r applies to name, exactly or by prefix.
func (r thresholdRule) matches(name string) bool {
	if p, ok := strings.CutSuffix(r.pattern, "*"); ok {
		return strings.HasPrefix(name, p)
	}
	return r.pattern == name
}

// resolve returns the threshold for a metric: exact rule, else the longest
// matching prefix rule, else the default.
func resolve(name string, rules []thresholdRule, def float64) float64 {
	best, bestLen := def, -1
	for _, r := range rules {
		if r.pattern == name {
			return r.value
		}
		if p, ok := strings.CutSuffix(r.pattern, "*"); ok &&
			strings.HasPrefix(name, p) && len(p) > bestLen {
			best, bestLen = r.value, len(p)
		}
	}
	return best
}

// MetricDelta is one row of the comparison document.
type MetricDelta struct {
	Name      string  `json:"name"`
	Baseline  float64 `json:"baseline"`
	Candidate float64 `json:"candidate"`
	Delta     float64 `json:"delta"`
	// Rel is the relative delta versus the baseline; +-Inf encodes a
	// change from exactly zero and marshals as a string.
	Rel       float64 `json:"-"`
	Threshold float64 `json:"threshold"`
	// Status is "ok", "fail", "skipped" (non-finite on either side),
	// "baseline-only", or "candidate-only".
	Status string `json:"status"`
}

// MarshalJSON renders Rel as a number, or as a string for +-Inf.
func (d MetricDelta) MarshalJSON() ([]byte, error) {
	type alias MetricDelta
	out := struct {
		alias
		Rel any `json:"rel"`
	}{alias: alias(d), Rel: d.Rel}
	if math.IsInf(d.Rel, 0) {
		out.Rel = fmt.Sprintf("%v", d.Rel)
	}
	return json.Marshal(out)
}

// DeltaDoc is the machine-readable output of one comparison.
type DeltaDoc struct {
	Baseline  string        `json:"baseline"`
	Candidate string        `json:"candidate"`
	Compared  int           `json:"compared"`
	Failed    int           `json:"failed"`
	Unmatched int           `json:"unmatched"`
	Skipped   int           `json:"skipped,omitempty"`
	Ignored   int           `json:"ignored,omitempty"`
	Metrics   []MetricDelta `json:"metrics"`
}

type cmpConfig struct {
	maxRel    float64
	minAbs    float64
	overrides []thresholdRule
}

// compare builds the delta rows for the union of both metric sets, sorted
// by name.
func compare(base, cand map[string]float64, cfg cmpConfig) DeltaDoc {
	names := make([]string, 0, len(base)+len(cand))
	for k := range base {
		names = append(names, k)
	}
	for k := range cand {
		if _, ok := base[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)

	var doc DeltaDoc
	for _, name := range names {
		a, inA := base[name]
		b, inB := cand[name]
		d := MetricDelta{Name: name, Baseline: a, Candidate: b,
			Threshold: resolve(name, cfg.overrides, cfg.maxRel)}
		switch {
		case !inA:
			d.Status = "candidate-only"
			doc.Unmatched++
		case !inB:
			d.Status = "baseline-only"
			doc.Unmatched++
		case math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0):
			// flatten never admits non-finite values, but callers composing
			// maps directly get the same protection: a NaN comparison is
			// false either way, which would read as a silent pass.
			d.Status = "skipped"
			doc.Skipped++
		default:
			doc.Compared++
			d.Delta = b - a
			switch {
			case d.Delta == 0:
				d.Rel = 0
			case a == 0:
				d.Rel = math.Inf(1)
				if d.Delta < 0 {
					d.Rel = math.Inf(-1)
				}
			default:
				d.Rel = d.Delta / math.Abs(a)
			}
			d.Status = "ok"
			if math.Abs(d.Delta) > cfg.minAbs && math.Abs(d.Rel) > d.Threshold {
				d.Status = "fail"
				doc.Failed++
			}
		}
		doc.Metrics = append(doc.Metrics, d)
	}
	return doc
}

// printTable renders the human-readable comparison: the rows that did not
// pass, then the summary line.
func printTable(w io.Writer, doc DeltaDoc) {
	header := true
	for _, d := range doc.Metrics {
		if d.Status == "ok" {
			continue
		}
		if header {
			fmt.Fprintf(w, "%-36s %14s %14s %14s %9s  %s\n",
				"metric", "baseline", "candidate", "delta", "rel", "status")
			header = false
		}
		rel := "-"
		if d.Status == "fail" {
			rel = fmt.Sprintf("%+.3f%%", 100*d.Rel)
			if math.IsInf(d.Rel, 0) {
				rel = fmt.Sprintf("%v", d.Rel)
			}
		}
		fmt.Fprintf(w, "%-36s %14.6g %14.6g %+14.6g %9s  %s\n",
			d.Name, d.Baseline, d.Candidate, d.Delta, rel, d.Status)
	}
	fmt.Fprintf(w, "compared %d metrics: %d failed, %d unmatched",
		doc.Compared, doc.Failed, doc.Unmatched)
	if doc.Skipped > 0 {
		fmt.Fprintf(w, ", %d skipped (non-finite)", doc.Skipped)
	}
	if doc.Ignored > 0 {
		fmt.Fprintf(w, ", %d ignored (-ignore)", doc.Ignored)
	}
	fmt.Fprintln(w)
}
