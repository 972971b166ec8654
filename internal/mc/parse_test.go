package mc_test

import (
	"strings"
	"testing"

	"lazydram/internal/mc"
)

func TestParseScheme(t *testing.T) {
	s, err := mc.ParseScheme("static-dms", 64, 8)
	if err != nil || s.StaticDelay != 64 {
		t.Fatalf("static-dms: %+v, %v", s, err)
	}
	if _, err := mc.ParseScheme("nope", 0, 0); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	for _, want := range []mc.Scheme{mc.Baseline, mc.StaticDMS, mc.DynDMS, mc.StaticAMS, mc.DynAMS, mc.StaticBoth, mc.DynBoth} {
		if got, err := mc.ParseScheme(want.Name(), want.StaticDelay, want.StaticThRBL); err != nil || got != want {
			t.Errorf("%s parsed to %+v, %v", want.Name(), got, err)
		}
	}
	if s, err := mc.ParseScheme("DMS(64)", 128, 8); err != nil || s.StaticDelay != 64 || s.Name() != "DMS(64)" {
		t.Errorf("DMS(64) parsed to %+v, %v", s, err)
	}
}

// TestParseSchemeRejectsNegativeParameters: a negative delay or Th_RBL,
// passed as an argument or carried in the name, must not parse. A negative
// delay once wrapped to a hold of nearly 2^64 cycles, so the run held every
// row miss until the cycle limit.
func TestParseSchemeRejectsNegativeParameters(t *testing.T) {
	for _, tc := range []struct {
		name         string
		delay, thrbl int
	}{
		{"dms(-5)", 128, 8},
		{"ams(-3)", 128, 8},
		{"static-dms", -5, 8},
		{"dms", -1, 8},
		{"static-ams", 128, -1},
		{"static-both", -5, 8},
		{"both", 128, -2},
	} {
		if s, err := mc.ParseScheme(tc.name, tc.delay, tc.thrbl); err == nil {
			t.Errorf("ParseScheme(%q, %d, %d) accepted as %+v", tc.name, tc.delay, tc.thrbl, s)
		}
	}
	// A parameter the variant does not use is not checked.
	for _, name := range []string{"baseline", "dyn-dms", "dyn-both", "dms(5)"} {
		if _, err := mc.ParseScheme(name, 128, -1); err != nil {
			t.Errorf("%s with an unused negative Th_RBL: %v", name, err)
		}
	}
	if _, err := mc.ParseScheme("ams(5)", -1, 8); err != nil {
		t.Errorf("ams(5) with an unused negative delay: %v", err)
	}
}

// FuzzParseScheme: no input panics; an accepted name is accepted in any
// letter case with the same result; an accepted scheme's parameters are
// non-negative; and its display name parses back to it under the scheme's
// own parameters.
func FuzzParseScheme(f *testing.F) {
	f.Add("dyn-both", 128, 8)
	f.Add("Static-DMS", 64, 8)
	f.Add("AMS(4)", 128, 8)
	f.Fuzz(func(t *testing.T, name string, delay, thrbl int) {
		s, err := mc.ParseScheme(name, delay, thrbl)
		if lerr := errOf(mc.ParseScheme(strings.ToLower(name), delay, thrbl)); (err == nil) != (lerr == nil) {
			t.Fatalf("%q and its lower case disagree: %v vs %v", name, err, lerr)
		}
		if err != nil {
			return
		}
		if s.StaticDelay < 0 || s.StaticThRBL < 0 {
			t.Fatalf("%q (delay %d, Th_RBL %d) accepted with a negative parameter: %+v", name, delay, thrbl, s)
		}
		for _, spelled := range []string{strings.ToUpper(name), strings.ToLower(name)} {
			if got, err := mc.ParseScheme(spelled, delay, thrbl); err != nil || got != s {
				t.Fatalf("%q parsed to %+v, but %q to %+v, %v", name, s, spelled, got, err)
			}
		}
		if got, err := mc.ParseScheme(s.Name(), s.StaticDelay, s.StaticThRBL); err != nil || got != s {
			t.Fatalf("%q parsed to %+v, whose name %q parses to %+v, %v", name, s, s.Name(), got, err)
		}
	})
}

func errOf(_ mc.Scheme, err error) error { return err }
