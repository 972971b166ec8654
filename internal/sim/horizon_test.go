package sim_test

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"lazydram/internal/mc"
	"lazydram/internal/sim"
)

// TestSMHorizonEquivalence pins the event-driven core side to a reference
// that ticks every SM and polls every reply port on every cycle: an SM
// ticked only on its horizon, on a reply or to send its outbox head must
// yield the same Result, every telemetry block included (host timings
// excepted), and the same digest chain. A horizon too late, or a missed
// wake event, shifts some SM's timing and fails it.
func TestSMHorizonEquivalence(t *testing.T) {
	apps := []string{"SCP", "FWT", "GEMM", "MVT", "RAY", "3DCONV"}
	if testing.Short() {
		apps = apps[:2]
	}
	obsOn := func(cfg *sim.Config) {
		cfg.Obs.Latency = true
		cfg.Obs.SampleEvery = 2048
		cfg.Obs.TraceCapacity = 4096
		cfg.Obs.AuditCapacity = 4096
		cfg.Obs.Quality = true
		cfg.Obs.Census = true
		cfg.Obs.DigestEvery = 1024
	}
	type run struct {
		name   string
		app    string
		scheme mc.Scheme
		mutate []func(*sim.Config)
	}
	var runs []run
	for _, app := range apps {
		for _, scheme := range []mc.Scheme{mc.Baseline, mc.DynBoth} {
			runs = append(runs, run{app + "/" + scheme.Name(), app, scheme, []func(*sim.Config){obsOn}})
		}
	}
	runs = append(runs,
		run{"SCP/" + mc.DynBoth.Name() + "/fault", "SCP", mc.DynBoth, []func(*sim.Config){obsOn, func(cfg *sim.Config) {
			cfg.Fault.Enabled = true
			cfg.Fault.BusBER = 1e-6
			cfg.Fault.WeakCellDensity = 1e-5
		}}},
	)
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			got := runGPU(t, prepare(t, r.app, r.scheme, r.mutate...))
			ref := prepare(t, r.app, r.scheme, r.mutate...)
			sim.SetTickEvery(ref)
			want := runGPU(t, ref)
			assertSameResult(t, got, want)
		})
	}
}

func runGPU(t *testing.T, g *sim.GPU) *sim.Result {
	t.Helper()
	res, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertSameResult requires got and want to be deeply equal but for their
// host-side phase timings, comparing outputs bitwise (a fault run may
// produce NaNs).
func assertSameResult(t *testing.T, got, want *sim.Result) {
	t.Helper()
	if got.Digest.Chain() != want.Digest.Chain() || got.Digest.Final() != want.Digest.Final() {
		t.Errorf("digests differ: chain %#x final %#x, want chain %#x final %#x",
			got.Digest.Chain(), got.Digest.Final(), want.Digest.Chain(), want.Digest.Final())
	}
	if !outputBitsEqual(got.Output, want.Output) {
		t.Errorf("outputs differ")
	}
	if !reflect.DeepEqual(got.Run, want.Run) {
		t.Errorf("run statistics differ:\ngot:  %+v\nwant: %+v", got.Run, want.Run)
	}
	g, w := withoutHostTimings(got), withoutHostTimings(want)
	if !reflect.DeepEqual(g, w) {
		t.Errorf("results differ:\ngot:  %.2000s\nwant: %.2000s", mustJSON(t, g.Telemetry), mustJSON(t, w.Telemetry))
	}
}

// withoutHostTimings returns a shallow copy of r without its output (compared
// bitwise apart) and its census's host-side phase timings.
func withoutHostTimings(r *sim.Result) sim.Result {
	c := *r
	c.Output = nil
	if r.Telemetry != nil && r.Telemetry.Census != nil {
		tel, cen := *r.Telemetry, *r.Telemetry.Census
		cen.Host, tel.Census = nil, &cen
		c.Telemetry = &tel
	}
	return c
}

func outputBitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
