package sim_test

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"lazydram/internal/mc"
	"lazydram/internal/sim"
)

// TestShardedMatchesSequential is the cycle-layer determinism gate: with
// every cycle's SM phase sharded over the two-worker pool, a run must be
// byte-identical to the serial one — same Output, same aggregate and
// per-channel statistics, same fault digest, and the same flattened
// telemetry (latency stages, time series, trace and audit rings, quality
// digests).
func TestShardedMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full app x scheme matrix in -short mode")
	}
	apps := []string{"SCP", "MVT"}
	schemes := []mc.Scheme{mc.Baseline, mc.DynBoth}
	for _, app := range apps {
		for _, scheme := range schemes {
			t.Run(app+"/"+scheme.Name(), func(t *testing.T) {
				obsOn := func(cfg *sim.Config) {
					cfg.Obs.Latency = true
					cfg.Obs.SampleEvery = 2048
					cfg.Obs.TraceCapacity = 4096
					cfg.Obs.AuditCapacity = 4096
					cfg.Obs.Quality = true
					cfg.Fault.Enabled = true
					cfg.Fault.BusBER = 1e-7
					cfg.Fault.WeakCellDensity = 1e-6
				}
				seq := simulate(t, app, scheme, obsOn)
				par := simulateParallelSMs(t, app, scheme, obsOn)
				assertResultsIdentical(t, seq, par)
			})
		}
	}
}

// simulateParallelSMs is simulate with every cycle's SM phase forced onto
// the two-worker pool.
func simulateParallelSMs(t *testing.T, app string, scheme mc.Scheme, mutate ...func(*sim.Config)) *sim.Result {
	t.Helper()
	g := prepare(t, app, scheme, mutate...)
	sim.SetParallelSMs(g)
	return runGPU(t, g)
}

// assertResultsIdentical compares every deterministic field of two results.
// Outputs are compared bitwise: fault-corrupted floats can be NaN, which
// reflect.DeepEqual would treat as unequal even when identical.
func assertResultsIdentical(t *testing.T, seq, par *sim.Result) {
	t.Helper()
	if !outputBitsEqual(seq.Output, par.Output) {
		t.Errorf("outputs differ between serial and parallel-SM runs")
	}
	if !reflect.DeepEqual(seq.Run, par.Run) {
		t.Errorf("run statistics differ:\nseq: %+v\npar: %+v", seq.Run, par.Run)
	}
	if !reflect.DeepEqual(seq.Channels, par.Channels) {
		t.Errorf("per-channel statistics differ")
	}
	if seq.VPPredictions != par.VPPredictions || seq.VPFallbacks != par.VPFallbacks {
		t.Errorf("VP counters differ: seq %d/%d, par %d/%d",
			seq.VPPredictions, seq.VPFallbacks, par.VPPredictions, par.VPFallbacks)
	}
	seqTel := mustJSON(t, seq.Telemetry)
	parTel := mustJSON(t, par.Telemetry)
	if seqTel != parTel {
		t.Errorf("flattened telemetry differs:\nseq: %.2000s\npar: %.2000s", seqTel, parTel)
	}
	if seq.Telemetry != nil && par.Telemetry != nil &&
		seq.Telemetry.Fault != nil && par.Telemetry.Fault != nil {
		if seq.Telemetry.Fault.Digest != par.Telemetry.Fault.Digest {
			t.Errorf("fault digests differ: %#x vs %#x",
				seq.Telemetry.Fault.Digest, par.Telemetry.Fault.Digest)
		}
	} else if (seq.Telemetry == nil) != (par.Telemetry == nil) {
		t.Errorf("telemetry presence differs")
	}
	if !reflect.DeepEqual(seq.Trace.Commands(), par.Trace.Commands()) {
		t.Errorf("DRAM command traces differ")
	}
	if !reflect.DeepEqual(seq.Audit.Entries(), par.Audit.Entries()) {
		t.Errorf("audit ring entries differ")
	}
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
