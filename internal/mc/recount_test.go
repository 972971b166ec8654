package mc

import (
	"fmt"

	"lazydram/internal/dram"
	"lazydram/internal/obs"
	"lazydram/internal/stats"
)

// Recount is one channel's row metrics recounted from its DRAM command trace
// alone. Like CheckCommandLegality it shares no code with the model: the
// replay keeps its own per-bank open-row state and reads only the trace and
// the dram.Config it is given (tCCD for the burst length, the bank count),
// never internal/dram state or methods.
type Recount struct {
	Banks []RecountBank
	// RBL and ReadsPerRBL are the row-buffer-locality histograms: per
	// activation that served n > 0 column accesses, RBL[min(n, max)] counts
	// it once and ReadsPerRBL adds its reads. ReadOnlyActs counts those that
	// served no write.
	RBL, ReadsPerRBL [stats.MaxTrackedRBL + 1]uint64
	ReadOnlyActs     uint64
}

// RecountBank is one bank's recount: its commands, the class of each column
// access, and its data-bus cycles (tCCD per burst).
type RecountBank struct {
	ACT, PRE, RD, WR        uint64
	Hits, Misses, Conflicts uint64
	BusBusy                 uint64
}

// recountBank is a bank's replay state: the open activation's tallies, and
// whether the bank was ever precharged, which makes its next activation's
// first access a conflict rather than a miss.
type recountBank struct {
	closedOnce, conflict bool
	served, reads        int
	wrote                bool
}

// RecountCommands replays cmds (any number of channels) and returns one
// Recount per channel, indexed by channel id. Rows still open at the end are
// closed into the RBL histograms, as the model's end-of-run Drain does.
//
// Without refresh only a PRE closes a row. An activation's first access is a
// conflict when the bank was precharged before, else a miss: exact when
// every PRE is a demand precharge (FR-FCFS, FCFS). The trace cannot tell the
// closed-row policy's idle PRE from a demand PRE, so there only misses +
// conflicts is exact.
func RecountCommands(cfg dram.Config, cmds []obs.Cmd) []Recount {
	var out []Recount
	var state [][]recountBank
	closeRow := func(rc *Recount, bk *recountBank) {
		if bk.served > 0 {
			i := min(bk.served, stats.MaxTrackedRBL)
			rc.RBL[i]++
			rc.ReadsPerRBL[i] += uint64(bk.reads)
			if !bk.wrote {
				rc.ReadOnlyActs++
			}
		}
		*bk = recountBank{closedOnce: bk.closedOnce}
	}
	for _, c := range cmds {
		for len(out) <= int(c.Channel) {
			out = append(out, Recount{Banks: make([]RecountBank, cfg.NumBanks)})
			state = append(state, make([]recountBank, cfg.NumBanks))
		}
		rc, bk := &out[c.Channel], &state[c.Channel][c.Bank]
		n := &rc.Banks[c.Bank]
		switch c.Kind {
		case obs.CmdACT:
			n.ACT++
			bk.conflict = bk.closedOnce
		case obs.CmdPRE:
			n.PRE++
			closeRow(rc, bk)
			bk.closedOnce = true
		case obs.CmdRD, obs.CmdWR:
			if c.Kind == obs.CmdRD {
				n.RD++
				bk.reads++
			} else {
				n.WR++
				bk.wrote = true
			}
			n.BusBusy += cfg.Timing.CCD
			switch {
			case bk.served > 0:
				n.Hits++
			case bk.conflict:
				n.Conflicts++
			default:
				n.Misses++
			}
			bk.served++
		}
	}
	for ch := range state {
		for b := range state[ch] {
			closeRow(&out[ch], &state[ch][b])
		}
	}
	return out
}

// Activations sums the channel's ACT commands.
func (rc *Recount) Activations() uint64 {
	var n uint64
	for _, b := range rc.Banks {
		n += b.ACT
	}
	return n
}

// Check compares the recount with the model's statistics of the same
// channel and returns an error listing every counter that differs. exact
// selects whether row misses and conflicts are compared one by one or only
// as their sum (see RecountCommands).
func (rc *Recount) Check(m *stats.Mem, exact bool) error {
	var diffs []string
	cmp := func(what string, got, want uint64) {
		if got != want {
			diffs = append(diffs, fmt.Sprintf("%s: recount %d, model %d", what, got, want))
		}
	}
	if len(m.Banks) != len(rc.Banks) {
		return fmt.Errorf("model tracks %d banks, recount %d", len(m.Banks), len(rc.Banks))
	}
	var total RecountBank
	for b, r := range rc.Banks {
		mb := &m.Banks[b]
		at := func(f string) string { return fmt.Sprintf("bank %d %s", b, f) }
		cmp(at("activations"), r.ACT, mb.Activations)
		cmp(at("precharges"), r.PRE, mb.Precharges)
		cmp(at("reads"), r.RD, mb.Reads)
		cmp(at("writes"), r.WR, mb.Writes)
		cmp(at("row hits"), r.Hits, mb.RowHits)
		if exact {
			cmp(at("row misses"), r.Misses, mb.RowMisses)
			cmp(at("row conflicts"), r.Conflicts, mb.RowConflicts)
		} else {
			cmp(at("row misses+conflicts"), r.Misses+r.Conflicts, mb.RowMisses+mb.RowConflicts)
		}
		cmp(at("bus busy"), r.BusBusy, mb.BusBusy)
		total.ACT += r.ACT
		total.RD += r.RD
		total.WR += r.WR
		total.BusBusy += r.BusBusy
	}
	cmp("activations", total.ACT, m.Activations)
	cmp("reads", total.RD, m.Reads)
	cmp("writes", total.WR, m.Writes)
	cmp("data bus busy", total.BusBusy, m.DataBusBusy)
	for i := range rc.RBL {
		cmp(fmt.Sprintf("RBL[%d]", i), rc.RBL[i], m.RBL[i])
		cmp(fmt.Sprintf("reads per RBL[%d]", i), rc.ReadsPerRBL[i], m.ReadsPerRBL[i])
	}
	cmp("read-only activations", rc.ReadOnlyActs, m.ReadOnlyActs)
	if len(diffs) > 0 {
		return fmt.Errorf("%d counters differ, first %q", len(diffs), diffs[0])
	}
	return nil
}
