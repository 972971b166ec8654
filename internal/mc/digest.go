package mc

import (
	"fmt"
	"strings"

	"lazydram/internal/obs"
)

// DigestInto folds the controller's live scheduling state into h: the
// queue counters, every bank's pending requests in arrival order, and the
// DMS/AMS unit state.
func (c *Controller) DigestInto(h *obs.Hasher) {
	h.Int(c.live)
	h.U64(c.nextID)
	h.U64(c.now)
	for b := range c.banks {
		bq := &c.banks[b]
		h.Int(len(bq.fifo))
		for _, r := range bq.fifo {
			h.U64(r.ID)
			h.U64(r.Addr)
			h.Bool(r.Write)
			h.Bool(r.Approximable)
			h.U64(r.Arrival)
		}
	}
	if c.dms != nil {
		c.dms.digestInto(h)
	} else {
		h.Int(-1)
	}
	if c.ams != nil {
		c.ams.digestInto(h)
	} else {
		h.Int(-1)
	}
}

func (u *dmsUnit) digestInto(h *obs.Hasher) {
	h.Int(int(u.mode))
	h.Int(u.delay)
	h.Int(u.recorded)
	h.Int(int(u.phase))
	h.F64(u.baselineBW)
	h.U64(u.busyAtWinStart)
	h.U64(u.winStart)
	h.Int(u.winCount)
	h.Bool(u.searchingDown)
	h.Bool(u.warmup)
}

func (u *amsUnit) digestInto(h *obs.Hasher) {
	h.Int(int(u.mode))
	h.Int(u.thRBL)
	h.U64(u.winStart)
	h.U64(u.droppedAtWinStart)
	h.U64(u.readsAtWinStart)
	h.Int(len(u.dropList))
	for _, r := range u.dropList {
		h.U64(r.ID)
	}
	h.Int(u.dropBank)
	h.I64(u.dropRow)
}

// DumpState renders the controller's live queue and unit state for
// lazydiverge's focused state diffs: counters, per-bank pending heads, and
// the DMS/AMS search state.
func (c *Controller) DumpState() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "live=%d nextID=%d now=%d delay=%d thRBL=%d\n",
		c.live, c.nextID, c.now, c.Delay(), c.ThRBL())
	for b := range c.banks {
		bq := &c.banks[b]
		if len(bq.fifo) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "bank[%d]: pending=%d heads=", b, len(bq.fifo))
		for shown, r := range bq.fifo {
			if shown > 0 {
				sb.WriteByte(' ')
			}
			kind := "R"
			if r.Write {
				kind = "W"
			} else if r.Approximable {
				kind = "RA"
			}
			fmt.Fprintf(&sb, "#%d@%#x/%s/arr=%d", r.ID, r.Addr, kind, r.Arrival)
			if shown == 3 {
				break
			}
		}
		sb.WriteByte('\n')
	}
	if u := c.dms; u != nil {
		fmt.Fprintf(&sb, "dms: phase=%v delay=%d recorded=%d baselineBW=%.4f winStart=%d winCount=%d down=%v warmup=%v\n",
			u.phase, u.delay, u.recorded, u.baselineBW, u.winStart, u.winCount, u.searchingDown, u.warmup)
	}
	if u := c.ams; u != nil {
		fmt.Fprintf(&sb, "ams: thRBL=%d winStart=%d dropList=%d dropBank=%d dropRow=%d\n",
			u.thRBL, u.winStart, len(u.dropList), u.dropBank, u.dropRow)
	}
	return sb.String()
}
