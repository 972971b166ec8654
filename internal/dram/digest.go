package dram

import "lazydram/internal/obs"

// DigestBank folds bank b's complete timing and row state into h: the open
// row, every per-bank timing scoreboard, and the current activation's
// accounting. Two channels whose banks digest identically will accept and
// time the same commands identically.
func (c *Channel) DigestBank(b int, h *obs.Hasher) {
	bk := &c.banks[b]
	h.I64("openRow", bk.OpenRow)
	h.U64("nextAct", bk.nextAct)
	h.U64("nextRead", bk.nextRead)
	h.U64("nextWrite", bk.nextWrite)
	h.U64("nextPre", bk.nextPre)
	h.U64("openedAt", bk.openedAt)
	h.Int("served", bk.served)
	h.Int("servedReads", bk.servedReads)
	h.Bool("readOnly", bk.readOnly)
	h.Bool("demandClosed", bk.demandClosed)
	h.Bool("conflictAct", bk.conflictAct)
}

// DigestInto folds the channel-level constraint state into h: the tRRD
// scoreboard, column-bus turnaround and the per-bank-group tCCDL stamps.
// Bank state is folded separately via DigestBank so divergence can be
// attributed to an individual bank.
func (c *Channel) DigestInto(h *obs.Hasher) {
	h.U64("nextActAny", c.nextActAny)
	h.U64("nextColRead", c.nextColRead)
	h.U64("nextColWrite", c.nextColWrite)
	for g, at := range c.nextColGroup {
		h.Enter("group", g)
		h.U64("nextCol", at)
		h.Leave()
	}
}
