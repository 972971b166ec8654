package mc_test

import (
	"testing"

	"lazydram/internal/mc"
	"lazydram/internal/sim"
	"lazydram/internal/workloads"
)

// TestCommandLegalitySimulator replays the whole simulator's DRAM command
// trace, every channel of a full run, through CheckCommandLegality for a
// read-heavy lazy run, a write-heavy multi-phase run and a core-bound
// baseline. The trace ring is sized so that it keeps every command.
func TestCommandLegalitySimulator(t *testing.T) {
	for _, tc := range []struct {
		app    string
		scheme mc.Scheme
	}{
		{"SCP", mc.DynBoth},
		{"FWT", mc.DynDMS},
		{"GEMM", mc.Baseline},
	} {
		k, err := workloads.New(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.DefaultConfig()
		cfg.Obs.TraceCapacity = 1 << 18
		res, err := sim.Simulate(k, cfg, tc.scheme, 1)
		if err != nil {
			t.Fatal(err)
		}
		name := tc.app + "/" + tc.scheme.Name()
		if res.Trace.Dropped() != 0 {
			t.Fatalf("%s: the trace ring dropped %d of %d commands", name, res.Trace.Dropped(), res.Trace.Total())
		}
		m := res.Run.Mem
		if n := res.Trace.Total(); n < m.Activations+m.Reads+m.Writes {
			t.Fatalf("%s: trace holds %d commands, fewer than the %d ACT/RD/WR issued", name, n, m.Activations+m.Reads+m.Writes)
		}
		if err := mc.CheckCommandLegality(cfg.DRAM, res.Trace.Commands()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
