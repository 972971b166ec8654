package mc

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseScheme maps a scheme name to its configuration; delay and thrbl fill
// the static variants' parameters. Shared by every CLI that takes -scheme.
// Case is ignored, and every display name Scheme.Name returns parses back:
// DMS(X) and AMS(T) carry their own parameter. A negative delay or Th_RBL
// is rejected: a negative delay would wrap to a hold of nearly 2^64 cycles.
func ParseScheme(name string, delay, thrbl int) (Scheme, error) {
	s, err := parseScheme(name, delay, thrbl)
	if err == nil && (s.StaticDelay < 0 || s.StaticThRBL < 0) {
		return Scheme{}, fmt.Errorf("scheme %q: negative parameter (delay %d, Th_RBL %d)",
			name, s.StaticDelay, s.StaticThRBL)
	}
	return s, err
}

func parseScheme(name string, delay, thrbl int) (Scheme, error) {
	switch lower := strings.ToLower(name); lower {
	case "baseline", "base":
		return Baseline, nil
	case "static-dms", "dms":
		s := StaticDMS
		s.StaticDelay = delay
		return s, nil
	case "dyn-dms":
		return DynDMS, nil
	case "static-ams", "ams":
		s := StaticAMS
		s.StaticThRBL = thrbl
		return s, nil
	case "dyn-ams":
		return DynAMS, nil
	case "static-both", "both", "static-dms+static-ams":
		s := StaticBoth
		s.StaticDelay = delay
		s.StaticThRBL = thrbl
		return s, nil
	case "dyn-both", "dyn-dms+dyn-ams":
		return DynBoth, nil
	default:
		if x, ok := param(lower, "dms("); ok {
			return parseScheme("static-dms", x, thrbl)
		}
		if t, ok := param(lower, "ams("); ok {
			return parseScheme("static-ams", delay, t)
		}
		return Scheme{}, fmt.Errorf("unknown scheme %q", name)
	}
}

// param reads the integer of name = prefix + integer + ")".
func param(name, prefix string) (int, bool) {
	digits, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	if digits, ok = strings.CutSuffix(digits, ")"); !ok {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	return n, err == nil
}
