package mc

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"lazydram/internal/dram"
	"lazydram/internal/obs"
)

// CheckCommandLegality replays a DRAM command stream (obs.CmdTrace
// Commands, any number of channels) and returns an error naming the first
// command that breaks a timing or row-state rule. It is an oracle that
// shares no code with the model: every bound is derived here from the
// dram.Timing fields of cfg (and its bank-group count), never from
// internal/dram state or methods. The rules:
//
//   - one command per channel per cycle;
//   - per bank: ACT→RD/WR ≥ tRCD, ACT→PRE ≥ tRAS, PRE→ACT ≥ tRP,
//     ACT→ACT ≥ tRC, RD→PRE ≥ tRTP and WR→PRE ≥ WL+tCCD+tWR;
//   - row state: RD/WR only to the row the bank's last ACT opened, PRE only
//     on an open bank, ACT only on a closed one;
//   - per channel: ACT→ACT on any bank ≥ tRRD, column→column ≥ tCCD (and
//     ≥ tCCDL within a bank group when set), RD ≥ WL+tCCD+tCDLR after a WR,
//     and no two data bursts (RD at CL, WR at WL, tCCD long) overlap.
//
// The trace labels a column command with the bank's open row, so the
// row-state rule checks the row the model believed open, not the request's.
func CheckCommandLegality(cfg dram.Config, cmds []obs.Cmd) error {
	chans := map[int16]*legalChan{}
	for _, c := range cmds {
		ch := chans[c.Channel]
		if ch == nil {
			ch = &legalChan{last: never, act: never, col: never, wr: never}
			chans[c.Channel] = ch
		}
		if err := ch.step(cfg, c); err != nil {
			return fmt.Errorf("channel %d cycle %d %s bank %d row %d: %w",
				c.Channel, c.Cycle, c.Kind, c.Bank, c.Row, err)
		}
	}
	for id, ch := range chans {
		slices.SortFunc(ch.bursts, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		for i := 1; i < len(ch.bursts); i++ {
			if prev, cur := ch.bursts[i-1], ch.bursts[i]; cur[0] < prev[1] {
				return fmt.Errorf("channel %d: data burst [%d,%d) overlaps [%d,%d)", id, cur[0], cur[1], prev[0], prev[1])
			}
		}
	}
	return nil
}

// never stands for "no such command yet": far enough in the past that every
// spacing rule measured from it holds.
const never = -1 << 40

type legalBank struct {
	open             bool
	row              int64
	act, pre, rd, wr int64
}

type legalChan struct {
	banks  []legalBank
	last   int64   // previous command of any kind
	act    int64   // last ACT, any bank
	col    int64   // last RD/WR, any bank
	wr     int64   // last WR, any bank
	group  []int64 // last RD/WR per bank group
	bursts [][2]int64
}

func (ch *legalChan) bank(b int) *legalBank {
	for len(ch.banks) <= b {
		ch.banks = append(ch.banks, legalBank{act: never, pre: never, rd: never, wr: never})
	}
	return &ch.banks[b]
}

// step applies one command to the channel's replay state, first checking
// every rule that bounds it.
func (ch *legalChan) step(cfg dram.Config, c obs.Cmd) error {
	t := cfg.Timing
	now := int64(c.Cycle)
	gap := func(what string, from int64, min uint64) error {
		if now-from < int64(min) {
			return fmt.Errorf("%s %d cycles after the last one, need %d", what, now-from, min)
		}
		return nil
	}
	if now <= ch.last {
		return fmt.Errorf("issued at or before the channel's previous command (cycle %d)", ch.last)
	}
	ch.last = now
	bk := ch.bank(int(c.Bank))
	var err error
	switch c.Kind {
	case obs.CmdACT:
		if bk.open {
			return fmt.Errorf("ACT to a bank with row %d open", bk.row)
		}
		err = firstErr(gap("ACT→ACT (tRC)", bk.act, t.RC), gap("PRE→ACT (tRP)", bk.pre, t.RP),
			gap("ACT→ACT any bank (tRRD)", ch.act, t.RRD))
		bk.open, bk.row, bk.act, ch.act = true, c.Row, now, now
	case obs.CmdPRE:
		if !bk.open {
			return fmt.Errorf("PRE to a closed bank")
		}
		err = firstErr(gap("ACT→PRE (tRAS)", bk.act, t.RAS), gap("RD→PRE (tRTP)", bk.rd, t.RTP),
			gap("WR→PRE (WL+tCCD+tWR)", bk.wr, t.WL+t.CCD+t.WR))
		bk.open, bk.pre = false, now
	case obs.CmdRD, obs.CmdWR:
		if !bk.open || bk.row != c.Row {
			return fmt.Errorf("column command to row %d, bank open=%v row %d", c.Row, bk.open, bk.row)
		}
		g := 0
		if cfg.NumBankGroups > 0 {
			g = int(c.Bank) % cfg.NumBankGroups
		}
		for len(ch.group) <= g {
			ch.group = append(ch.group, never)
		}
		err = firstErr(gap("ACT→column (tRCD)", bk.act, t.RCD), gap("column→column (tCCD)", ch.col, t.CCD),
			gap("column→column same bank group (tCCDL)", ch.group[g], t.CCDL))
		lat := t.WL
		if c.Kind == obs.CmdRD {
			err = firstErr(err, gap("WR→RD (WL+tCCD+tCDLR)", ch.wr, t.WL+t.CCD+t.CDLR))
			lat = t.CL
			bk.rd = now
		} else {
			bk.wr, ch.wr = now, now
		}
		ch.col, ch.group[g] = now, now
		start := now + int64(lat)
		ch.bursts = append(ch.bursts, [2]int64{start, start + int64(t.CCD)})
	default:
		return fmt.Errorf("unknown command kind")
	}
	return err
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TestCommandLegalityHorizonTraffic replays the command trace of the
// horizon traffic mix through CheckCommandLegality, and recounts its row
// metrics against the model's statistics, under every policy and scheme, without a same-bank-group tCCDL and with one of 3 and of 5
// cycles: above 2·tCCD, a same-group column command can be due after a
// command to another group came between.
func TestCommandLegalityHorizonTraffic(t *testing.T) {
	ccdl3, ccdl5 := dram.HynixGDDR5(), dram.HynixGDDR5()
	ccdl3.CCDL = 3
	ccdl5.CCDL = 5
	timings := []struct {
		name   string
		timing dram.Timing
	}{
		{"base", dram.HynixGDDR5()},
		{"ccdl", ccdl3},
		{"ccdl5", ccdl5},
	}
	schemes := []Scheme{Baseline, StaticDMS, DynDMS, StaticAMS, DynAMS, StaticBoth, DynBoth}
	for _, tm := range timings {
		for _, pol := range []Policy{FRFCFS, FCFS, FRFCFSClosedRow} {
			for _, scheme := range schemes {
				name := fmt.Sprintf("%s/%s/%s", tm.name, pol, scheme.Name())
				tr := obs.NewCmdTrace(1 << 16)
				cfg := driveConfig{MC: DefaultConfig(), DRAM: dram.DefaultConfig(), Seed: 1}
				cfg.DRAM.Timing = tm.timing
				cfg.MC.Policy = pol
				cfg.MC.Scheme = scheme
				cfg.MC.ProfileWindow = 256
				cfg.setup = func(c *Controller) { c.ch.SetTrace(tr, 0) }
				res := driveWith(cfg, horizonTraffic(), 1200)
				if tr.Dropped() != 0 || tr.Total() < res.Served {
					t.Fatalf("%s: trace holds %d of %d commands for %d served requests",
						name, tr.Total()-tr.Dropped(), tr.Total(), res.Served)
				}
				cmds := tr.Commands()
				if err := CheckCommandLegality(cfg.DRAM, cmds); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				rc := RecountCommands(cfg.DRAM, cmds)
				if len(rc) != 1 {
					t.Fatalf("%s: %d channels recounted, want 1", name, len(rc))
				}
				if err := rc[0].Check(&res.Mem, pol != FRFCFSClosedRow); err != nil {
					t.Errorf("%s: recount: %v", name, err)
				}
			}
		}
	}
}
