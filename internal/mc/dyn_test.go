package mc_test

import (
	"math/rand"
	"testing"

	"lazydram/internal/dram"
	"lazydram/internal/mc"
	"lazydram/internal/stats"
)

// feedRandom pushes a request to a random (bank, row) every `period` cycles.
func feedRandom(h *harness, rng *rand.Rand, now uint64, rows int) {
	if !h.ctrl.Full() {
		h.push(rng.Intn(16), int64(rng.Intn(rows)), uint64(rng.Intn(16)*128), false, true)
	}
	_ = now
}

func TestDynDMSRampsUnderBacklog(t *testing.T) {
	// Open-loop traffic: BWUTIL is backlog-bound and insensitive to delay,
	// so Dyn-DMS must ramp its delay well above the static 128.
	h := newHarness(t, mc.DynDMS)
	rng := rand.New(rand.NewSource(1))
	for now := uint64(0); now < 200000; now++ {
		if now%4 == 0 {
			feedRandom(h, rng, now, 64)
		}
		h.ctrl.Tick(now)
	}
	if got := h.st.MeanDelay(); got < 200 {
		t.Fatalf("mean delay = %.0f, want a ramp well above 128", got)
	}
}

func TestDynDMSStaysWithinBounds(t *testing.T) {
	h := newHarness(t, mc.DynDMS)
	rng := rand.New(rand.NewSource(2))
	for now := uint64(0); now < 300000; now++ {
		if now%3 == 0 {
			feedRandom(h, rng, now, 256)
		}
		h.ctrl.Tick(now)
		if d := h.ctrl.Delay(); d < mc.MinDelay || d > mc.MaxDelay {
			t.Fatalf("delay %d out of [%d, %d]", d, mc.MinDelay, mc.MaxDelay)
		}
	}
}

func TestDynDMSReducesActivationsVsBaseline(t *testing.T) {
	run := func(scheme mc.Scheme) uint64 {
		h := newHarness(t, scheme)
		rng := rand.New(rand.NewSource(3))
		for now := uint64(0); now < 200000; now++ {
			if now%4 == 0 {
				feedRandom(h, rng, now, 48)
			}
			h.ctrl.Tick(now)
		}
		h.ctrl.Drain()
		return h.st.Activations
	}
	base := run(mc.Baseline)
	dyn := run(mc.DynDMS)
	if dyn >= base {
		t.Fatalf("Dyn-DMS activations %d >= baseline %d", dyn, base)
	}
}

func TestDynAMSModulatesThRBLDown(t *testing.T) {
	// Plenty of single-request rows: coverage demand saturates, so Dyn-AMS
	// must walk Th_RBL down toward 1.
	h := newHarness(t, mc.DynAMS)
	rng := rand.New(rand.NewSource(4))
	for now := uint64(0); now < 200000; now++ {
		if now%4 == 0 {
			feedRandom(h, rng, now, 4096)
		}
		h.ctrl.Tick(now)
	}
	if got := h.st.MeanThRBL(); got > 4 {
		t.Fatalf("mean Th_RBL = %.1f, want it pulled toward 1 under saturating coverage", got)
	}
}

func TestDynAMSCoverageStaysBounded(t *testing.T) {
	h := newHarness(t, mc.DynAMS)
	rng := rand.New(rand.NewSource(5))
	for now := uint64(0); now < 200000; now++ {
		if now%4 == 0 {
			feedRandom(h, rng, now, 4096)
		}
		h.ctrl.Tick(now)
	}
	if cov := h.st.Coverage(); cov > 0.101 {
		t.Fatalf("coverage %.4f exceeds the 10%% cap", cov)
	}
	if h.st.Dropped == 0 {
		t.Fatal("Dyn-AMS dropped nothing under ideal conditions")
	}
}

// TestSchedulerConservation is a property test: under random mixed traffic
// every pushed request is either served exactly once or dropped exactly
// once, and column-access counts match.
func TestSchedulerConservation(t *testing.T) {
	schemes := []mc.Scheme{mc.Baseline, mc.StaticDMS, mc.StaticAMS, mc.StaticBoth, mc.DynBoth}
	for _, scheme := range schemes {
		t.Run(scheme.Name(), func(t *testing.T) {
			h := newHarness(t, scheme)
			rng := rand.New(rand.NewSource(6))
			pushed := 0
			writes := 0
			for now := uint64(0); now < 150000; now++ {
				if now%5 == 0 && !h.ctrl.Full() {
					w := rng.Intn(4) == 0
					h.push(rng.Intn(16), int64(rng.Intn(128)), uint64(rng.Intn(16)*128), w, !w)
					pushed++
					if w {
						writes++
					}
				}
				h.ctrl.Tick(now)
			}
			// Let the queue drain.
			for now := uint64(150000); h.ctrl.Pending() > 0 && now < 400000; now++ {
				h.ctrl.Tick(now)
			}
			if h.ctrl.Pending() != 0 {
				t.Fatalf("%d requests stuck in the queue", h.ctrl.Pending())
			}
			if len(h.done) != pushed {
				t.Fatalf("completions %d != pushes %d", len(h.done), pushed)
			}
			seen := map[uint64]bool{}
			drops := 0
			for _, c := range h.done {
				if seen[c.req.ID] {
					t.Fatalf("request %d completed twice", c.req.ID)
				}
				seen[c.req.ID] = true
				if c.approx {
					drops++
					if c.req.Write {
						t.Fatal("a write was dropped")
					}
				}
			}
			if int(h.st.Reads+h.st.Writes)+drops != pushed {
				t.Fatalf("columns %d + drops %d != pushed %d",
					h.st.Reads+h.st.Writes, drops, pushed)
			}
			if int(h.st.Writes) != writes {
				t.Fatalf("writes served %d, pushed %d", h.st.Writes, writes)
			}
			if int(h.st.Dropped) != drops {
				t.Fatalf("stats.Dropped %d != observed %d", h.st.Dropped, drops)
			}
		})
	}
}

// TestRBLHistogramConservation: served requests must equal the weighted RBL
// histogram sum after draining.
func TestRBLHistogramConservation(t *testing.T) {
	h := newHarness(t, mc.Baseline)
	rng := rand.New(rand.NewSource(7))
	for now := uint64(0); now < 100000; now++ {
		if now%6 == 0 && !h.ctrl.Full() {
			h.push(rng.Intn(16), int64(rng.Intn(64)), uint64(rng.Intn(16)*128), false, false)
		}
		h.ctrl.Tick(now)
	}
	for now := uint64(100000); h.ctrl.Pending() > 0 && now < 300000; now++ {
		h.ctrl.Tick(now)
	}
	h.ctrl.Drain()
	var weighted uint64
	for i := 1; i <= stats.MaxTrackedRBL; i++ {
		weighted += uint64(i) * h.st.RBL[i]
	}
	if weighted != h.st.Reads+h.st.Writes {
		t.Fatalf("RBL-weighted sum %d != served %d", weighted, h.st.Reads+h.st.Writes)
	}
	var acts uint64
	for i := 1; i <= stats.MaxTrackedRBL; i++ {
		acts += h.st.RBL[i]
	}
	if acts != h.st.Activations {
		t.Fatalf("histogram activations %d != counted %d", acts, h.st.Activations)
	}
}

func TestFig8Scenario(t *testing.T) {
	// The paper's Figure 8: AMS alone drops the oldest R1 (Avg-RBL 1.8 ->
	// 1.6); with DMS the scheduler sees all nine requests and drops R5
	// (Avg-RBL -> 2.0).
	run := func(delay int) (avgRBL float64, droppedRow int64) {
		st := &stats.Mem{}
		ch := dram.NewChannel(dram.DefaultConfig(), st)
		cfg := mc.DefaultConfig()
		cfg.Scheme = mc.Scheme{AMS: mc.Static, StaticThRBL: 1, CoverageTarget: 0.11}
		if delay > 0 {
			cfg.Scheme.DMS = mc.Static
			cfg.Scheme.StaticDelay = delay
		}
		droppedRow = -1
		ctrl := mc.New(cfg, ch, st, func(req *mc.Request, approx bool, at uint64) {
			if approx {
				droppedRow = req.Coord.Row
			}
		}, nil)
		am := dram.DefaultAddrMap()
		push := func(row int64) {
			c := dram.Coord{Channel: 0, Bank: 0, Row: row, Col: uint64(st.ReadReqs%16) * 128}
			ctrl.Push(am.Encode(c), false, true, c)
		}
		for row := int64(1); row <= 5; row++ {
			push(row)
		}
		for now := uint64(0); now < 3000; now++ {
			if now == 20 {
				for row := int64(1); row <= 4; row++ {
					push(row)
				}
			}
			ctrl.Tick(now)
		}
		ctrl.Drain()
		return st.AvgRBL(), droppedRow
	}
	rbl, row := run(0)
	if row != 1 || rbl > 1.7 {
		t.Fatalf("AMS alone: dropped R%d with Avg-RBL %.2f, want R1 at 1.60", row, rbl)
	}
	rbl, row = run(64)
	if row != 5 || rbl < 1.99 {
		t.Fatalf("DMS+AMS: dropped R%d with Avg-RBL %.2f, want R5 at 2.00", row, rbl)
	}
}
