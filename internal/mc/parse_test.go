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

// FuzzParseScheme: no input panics; an accepted name is accepted in any
// letter case with the same result; and the accepted scheme's display name
// parses back to it under the scheme's own parameters.
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
