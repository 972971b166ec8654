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
// baseline. The trace ring is sized so that it keeps every command. The same
// trace is recounted into the paper's row metrics, which must equal the
// per-channel statistics, and its activations priced at the profile's
// row energy must equal the run's row energy and its per-channel and
// per-bank attribution.
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
		cmds := res.Trace.Commands()
		if err := mc.CheckCommandLegality(cfg.DRAM, cmds); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		rc := mc.RecountCommands(cfg.DRAM, cmds)
		if len(rc) != len(res.Channels) || len(rc) != len(res.EnergyByChannel) {
			t.Fatalf("%s: %d channels recounted, %d in the result, %d attributed",
				name, len(rc), len(res.Channels), len(res.EnergyByChannel))
		}
		act := cfg.Energy.ActNJ
		var acts uint64
		for ch := range rc {
			if err := rc[ch].Check(&res.Channels[ch], cfg.MC.Policy != mc.FRFCFSClosedRow); err != nil {
				t.Errorf("%s: channel %d: %v", name, ch, err)
			}
			n := rc[ch].Activations()
			acts += n
			e := res.EnergyByChannel[ch]
			if want := float64(n) * act; e.RowNJ != want {
				t.Errorf("%s: channel %d row energy %g nJ, recount %g", name, ch, e.RowNJ, want)
			}
			for b, be := range e.Banks {
				if want := float64(rc[ch].Banks[b].ACT) * act; be.RowNJ != want {
					t.Errorf("%s: channel %d bank %d row energy %g nJ, recount %g", name, ch, b, be.RowNJ, want)
				}
			}
		}
		if want := float64(acts) * act; res.Run.RowEnergy != want {
			t.Errorf("%s: row energy %g nJ, recount %g", name, res.Run.RowEnergy, want)
		}
	}
}
