package exp

import (
	"fmt"
	"io"

	"lazydram/internal/dram"
	"lazydram/internal/mc"
	"lazydram/internal/sim"
	"lazydram/internal/stats"
)

func init() {
	registerExp(Experiment{
		ID:    "fig7",
		Title: "Fig. 7: how AMS helps DMS (LPS and SCP case studies)",
		Run:   runFig7,
	})
	registerExp(Experiment{
		ID:    "fig8",
		Title: "Fig. 8: how DMS helps AMS (scripted 9-request micro-scenario)",
		Run:   runFig8,
	})
}

func fig7Row(w io.Writer, label string, base, res *sim.Result) {
	fmt.Fprintf(w, "%-18s %-10.3f %-10.3f %-10.4f %-10.4f\n", label,
		ratio(res.Run.IPC(), base.Run.IPC()),
		ratio(float64(res.Run.Mem.Activations), float64(base.Run.Mem.Activations)),
		res.Run.AppError, res.Run.Mem.Coverage())
}

func runFig7(r *Runner, w io.Writer, _ string) error {
	r.Prefetch(
		Point{App: "LPS", Scheme: mc.Baseline},
		Point{App: "LPS", Scheme: DMSScheme(256)},
		Point{App: "LPS", Scheme: DMSScheme(512)},
		Point{App: "LPS", Scheme: AMSScheme(8)},
		Point{App: "SCP", Scheme: mc.Baseline},
		Point{App: "SCP", Scheme: DMSScheme(128)},
		Point{App: "SCP", Scheme: DMSScheme(256)},
		Point{App: "SCP", Scheme: AMSScheme(8)},
		Point{App: "SCP", Scheme: BothScheme(256, 8)},
	)
	// (a) LPS: activations barely move with delay; AMS reduces them and
	// recovers IPC.
	header(w, "(a) LPS")
	fmt.Fprintf(w, "%-18s %-10s %-10s %-10s %-10s\n", "scheme", "norm-ipc", "norm-act", "app-err", "coverage")
	base, err := r.Baseline("LPS")
	if err != nil {
		return err
	}
	for _, c := range []struct {
		label string
		run   func() (*sim.Result, error)
	}{
		{"DMS(256)", func() (*sim.Result, error) { return r.DMS("LPS", 256) }},
		{"DMS(512)", func() (*sim.Result, error) { return r.DMS("LPS", 512) }},
		{"AMS(8)", func() (*sim.Result, error) { return r.AMS("LPS", 8) }},
	} {
		res, err := c.run()
		if err != nil {
			return err
		}
		fig7Row(w, c.label, base, res)
	}
	fmt.Fprintln(w)

	// (b) SCP: AMS compensates the IPC loss of a longer delay.
	header(w, "(b) SCP")
	fmt.Fprintf(w, "%-18s %-10s %-10s %-10s %-10s\n", "scheme", "norm-ipc", "norm-act", "app-err", "coverage")
	base, err = r.Baseline("SCP")
	if err != nil {
		return err
	}
	for _, c := range []struct {
		label string
		run   func() (*sim.Result, error)
	}{
		{"DMS(128)", func() (*sim.Result, error) { return r.DMS("SCP", 128) }},
		{"DMS(256)", func() (*sim.Result, error) { return r.DMS("SCP", 256) }},
		{"AMS(8)", func() (*sim.Result, error) { return r.AMS("SCP", 8) }},
		{"DMS(256)+AMS(8)", func() (*sim.Result, error) { return r.Both("SCP", 256, 8) }},
	} {
		res, err := c.run()
		if err != nil {
			return err
		}
		fig7Row(w, c.label, base, res)
	}
	return nil
}

// runFig8 reproduces the illustrative example of Figure 8 directly on a
// memory controller: nine requests destined to five rows (R1,R1,R2,R2,R3,R3,
// R4,R4,R5) of one bank. With AMS alone the scheduler sees five RBL(1) rows
// and drops the oldest (an R1), losing Avg-RBL (1.8 -> 1.6); with DMS the
// whole window is visible, R5 is correctly identified as the only RBL(1)
// row, and Avg-RBL rises to 2.0.
func runFig8(r *Runner, w io.Writer, _ string) error {
	header(w, "scripted scenario: 9 requests over rows R1..R5 of one bank")
	fmt.Fprintf(w, "%-12s %-8s %-8s %-8s %-9s %-8s\n",
		"scheme", "served", "dropped", "acts", "avg-RBL", "dropped-row")

	run := func(label string, delay int) error {
		st := &stats.Mem{}
		ch := dram.NewChannel(dram.DefaultConfig(), st)
		cfg := mc.DefaultConfig()
		// The coverage cap is set so exactly one of the nine requests may be
		// dropped, matching the illustration.
		cfg.Scheme = mc.Scheme{AMS: mc.Static, StaticThRBL: 1, CoverageTarget: 0.11}
		if delay > 0 {
			cfg.Scheme.DMS = mc.Static
			cfg.Scheme.StaticDelay = delay
		}
		var droppedRow int64 = -1
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
		// Initially visible: one request per row R1..R5.
		for row := int64(1); row <= 5; row++ {
			push(row)
		}
		for now := uint64(0); now < 3000; now++ {
			if now == 20 {
				// The second wave reaches the queue shortly after.
				for row := int64(1); row <= 4; row++ {
					push(row)
				}
			}
			ctrl.Tick(now)
		}
		ctrl.Drain()
		fmt.Fprintf(w, "%-12s %-8d %-8d %-8d %-9.2f R%d\n", label,
			st.Reads, st.Dropped, st.Activations, st.AvgRBL(), droppedRow)
		return nil
	}
	if err := run("AMS alone", 0); err != nil {
		return err
	}
	if err := run("DMS+AMS", 64); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n(AMS alone drops the oldest R1 and still activates all five rows;")
	fmt.Fprintln(w, " with DMS the queue shows R5 as the only RBL(1) row, saving its activation.)")
	return nil
}

func init() {
	registerExp(Experiment{
		ID:    "fig3",
		Title: "Fig. 3: delayed scheduling batches future same-row requests (scripted)",
		Run:   runFig3,
	})
}

// runFig3 reproduces the paper's first illustrative example: four requests
// to rows R1..R4 of one bank are pending, and four more to the same rows
// arrive only after the baseline has already served (and closed) them.
// Timely FR-FCFS pays eight activations (Avg-RBL 1); with a delay longer
// than the arrival gap, each row is opened once for both of its requests
// (Avg-RBL 2).
func runFig3(r *Runner, w io.Writer, _ string) error {
	header(w, "scripted scenario: 2x4 requests to rows R1..R4 of one bank")
	fmt.Fprintf(w, "%-12s %-8s %-8s %-9s\n", "scheme", "served", "acts", "avg-RBL")
	run := func(label string, delay int) error {
		st := &stats.Mem{}
		ch := dram.NewChannel(dram.DefaultConfig(), st)
		cfg := mc.DefaultConfig()
		if delay > 0 {
			cfg.Scheme = mc.Scheme{DMS: mc.Static, StaticDelay: delay}
		}
		ctrl := mc.New(cfg, ch, st, func(*mc.Request, bool, uint64) {}, nil)
		am := dram.DefaultAddrMap()
		push := func(row int64, col uint64) {
			c := dram.Coord{Channel: 0, Bank: 0, Row: row, Col: col}
			ctrl.Push(am.Encode(c), false, false, c)
		}
		for now := uint64(0); now < 4000; now++ {
			if now == 0 {
				for row := int64(1); row <= 4; row++ {
					push(row, 0)
				}
			}
			if now == 300 { // after the baseline has served the first wave
				for row := int64(1); row <= 4; row++ {
					push(row, 128)
				}
			}
			ctrl.Tick(now)
		}
		ctrl.Drain()
		fmt.Fprintf(w, "%-12s %-8d %-8d %-9.2f\n", label, st.Reads, st.Activations, st.AvgRBL())
		return nil
	}
	if err := run("baseline", 0); err != nil {
		return err
	}
	if err := run("DMS(512)", 512); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n(the delayed queue holds both waves when the rows open: half the activations)")
	return nil
}
