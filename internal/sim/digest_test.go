package sim_test

import (
	"reflect"
	"strings"
	"testing"

	"lazydram/internal/mc"
	"lazydram/internal/sim"
	"lazydram/internal/workloads"
)

func digestOn(cfg *sim.Config) {
	cfg.Obs.DigestEvery = 512
}

// prepare builds a stepwise-ready GPU the same way simulate builds its runs.
func prepare(t *testing.T, app string, scheme mc.Scheme, mutate ...func(*sim.Config)) *sim.GPU {
	t.Helper()
	k, err := workloads.New(app)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	for _, m := range mutate {
		m(&cfg)
	}
	return sim.Prepare(k, cfg, scheme, 1)
}

// TestStepMatchesRun is the stepwise-execution gate: driving a GPU one Step at
// a time must be bit-identical to Run — same outputs, same statistics, same
// digest stream and final machine digest — because cmd/lazydiverge's
// lockstep bisection depends on Step being Run's exact loop body.
func TestStepMatchesRun(t *testing.T) {
	// Run and Step both drive the serial cycle loop, the only execution path.
	t.Run("sequential", func(t *testing.T) {
		run := simulate(t, "SCP", mc.Baseline, digestOn)

		g := prepare(t, "SCP", mc.Baseline, digestOn)
		defer g.Close()
		steps := 0
		for {
			done, err := g.Step()
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
			if steps++; steps > 50_000_000 {
				t.Fatal("stepwise run did not terminate")
			}
		}
		stepped := g.Finish()

		if !outputBitsEqual(run.Output, stepped.Output) {
			t.Errorf("outputs differ between Run and Step")
		}
		if !reflect.DeepEqual(run.Run, stepped.Run) {
			t.Errorf("run statistics differ:\nrun:  %+v\nstep: %+v", run.Run, stepped.Run)
		}
		if run.Digest == nil || stepped.Digest == nil {
			t.Fatalf("digest log missing: run=%v step=%v", run.Digest != nil, stepped.Digest != nil)
		}
		if run.Digest.Chain() != stepped.Digest.Chain() {
			t.Errorf("digest chains differ: %#x vs %#x", run.Digest.Chain(), stepped.Digest.Chain())
		}
		if run.Digest.Final() != stepped.Digest.Final() {
			t.Errorf("final machine digests differ: %#x vs %#x", run.Digest.Final(), stepped.Digest.Final())
		}
		if run.Digest.Final() == 0 {
			t.Errorf("final machine digest was never recorded")
		}
		if !reflect.DeepEqual(run.Digest.Records(), stepped.Digest.Records()) {
			t.Errorf("digest record streams differ")
		}
		if tel := run.Telemetry; tel == nil || tel.Digest == nil {
			t.Fatal("telemetry digest summary missing")
		} else if tel.Digest.Intervals == 0 || tel.Digest.Final == "0x0000000000000000" {
			t.Errorf("telemetry digest summary empty: %+v", tel.Digest)
		}
	})
}

// TestDigestDivergesUnderFaults asserts the flight recorder actually sees a
// data divergence: same seed, fault injection on vs off must produce different
// traffic digests (and thus different chains) at some sampled interval.
func TestDigestDivergesUnderFaults(t *testing.T) {
	clean := simulate(t, "SCP", mc.Baseline, digestOn)
	faulty := simulate(t, "SCP", mc.Baseline, digestOn, func(cfg *sim.Config) {
		cfg.Fault.Enabled = true
		cfg.Fault.BusBER = 1e-4
		cfg.Fault.WeakCellDensity = 1e-3
	})
	if clean.Digest.Chain() == faulty.Digest.Chain() {
		t.Fatalf("fault-on and fault-off runs produced identical digest chains %#x", clean.Digest.Chain())
	}
	// The first divergent record must attribute the divergence to a partition
	// component (faults corrupt returned data, which lands in the traffic
	// digest first).
	cr, fr := clean.Digest.Records(), faulty.Digest.Records()
	n := min(len(cr), len(fr))
	found := false
	for i := 0; i < n; i++ {
		if cr[i].Machine == fr[i].Machine {
			continue
		}
		found = true
		partDiff := false
		for p := range cr[i].Parts {
			if cr[i].Parts[p] != fr[i].Parts[p] {
				partDiff = true
				if cr[i].Parts[p].Traffic == fr[i].Parts[p].Traffic {
					t.Logf("partition %d diverged without traffic divergence at cycle %d", p, cr[i].Cycle)
				}
			}
		}
		if !partDiff {
			t.Errorf("first divergent record (cycle %d) has no divergent partition", cr[i].Cycle)
		}
		break
	}
	if !found && len(cr) == len(fr) {
		t.Errorf("no divergent record found despite differing chains")
	}
}

// TestComponentDumpsHashToDigests is the one-list property of the digest
// node table: for every node ComponentDigests lists, the dump-mode walk of
// that node hashes to the node's digest, dumps at least one field, and names
// each field once, so lazydiverge can match the two sides' dumps by name.
func TestComponentDumpsHashToDigests(t *testing.T) {
	g := prepare(t, "SCP", mc.DynBoth, digestOn)
	defer g.Close()
	for g.CoreCycle() < 4000 {
		if done, err := g.Step(); err != nil || done {
			t.Fatalf("run ended early: done=%v err=%v", done, err)
		}
	}
	comps := g.ComponentDigests()
	paths := make(map[string]bool, len(comps))
	for _, c := range comps {
		paths[c.Path] = true
		dump, digest := g.StateDump(c.Path)
		if digest != c.Digest {
			t.Errorf("%s: dump walk hashes to %#x, node digest %#x", c.Path, digest, c.Digest)
		}
		if dump == "" {
			t.Errorf("%s: empty dump", c.Path)
		}
		seen := make(map[string]bool)
		for _, line := range strings.Split(strings.TrimSuffix(dump, "\n"), "\n") {
			name, _, ok := strings.Cut(line, "=")
			if !ok || seen[name] {
				t.Errorf("%s: line %q is not a field named once", c.Path, line)
				break
			}
			seen[name] = true
		}
	}
	for _, p := range []string{"machine", "cores.sm[0]", "icnt.reply", "partition[0].dram.bank[5]", "partition[3].traffic"} {
		if !paths[p] {
			t.Errorf("ComponentDigests lacks %s", p)
		}
	}
	if last := comps[len(comps)-1]; last.Path != "machine" || last.Digest != g.MachineDigest() {
		t.Errorf("last component %s %#x, want machine %#x", last.Path, last.Digest, g.MachineDigest())
	}
	if dump, digest := g.StateDump("partition[99]"); dump != "" || digest != 0 {
		t.Errorf("unknown path dumped %q (%#x)", dump, digest)
	}
}
