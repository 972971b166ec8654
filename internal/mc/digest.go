package mc

import "lazydram/internal/obs"

// DigestInto folds the controller's live scheduling state into h: the
// queue counters, every bank's pending requests in arrival order, and the
// DMS/AMS unit state.
func (c *Controller) DigestInto(h *obs.Hasher) {
	h.Int("live", c.live)
	h.U64("nextID", c.nextID)
	h.U64("now", c.now)
	for b := range c.banks {
		bq := &c.banks[b]
		h.Enter("bank", b)
		h.Int("fifo.len", len(bq.fifo))
		for i, r := range bq.fifo {
			h.Enter("fifo", i)
			h.U64("id", r.ID)
			h.U64("addr", r.Addr)
			h.Bool("write", r.Write)
			h.Bool("approx", r.Approximable)
			h.U64("arrival", r.Arrival)
			h.Leave()
		}
		h.Leave()
	}
	if c.dms != nil {
		h.Enter("dms")
		c.dms.digestInto(h)
		h.Leave()
	} else {
		h.Int("dms", -1)
	}
	if c.ams != nil {
		h.Enter("ams")
		c.ams.digestInto(h)
		h.Leave()
	} else {
		h.Int("ams", -1)
	}
}

func (u *dmsUnit) digestInto(h *obs.Hasher) {
	h.Int("mode", int(u.mode))
	h.Int("delay", u.delay)
	h.Int("recorded", u.recorded)
	h.Int("phase", int(u.phase))
	h.F64("baselineBW", u.baselineBW)
	h.U64("busyAtWinStart", u.busyAtWinStart)
	h.U64("winStart", u.winStart)
	h.Int("winCount", u.winCount)
	h.Bool("searchingDown", u.searchingDown)
	h.Bool("warmup", u.warmup)
}

func (u *amsUnit) digestInto(h *obs.Hasher) {
	h.Int("mode", int(u.mode))
	h.Int("thRBL", u.thRBL)
	h.U64("winStart", u.winStart)
	h.U64("droppedAtWinStart", u.droppedAtWinStart)
	h.U64("readsAtWinStart", u.readsAtWinStart)
	h.Int("dropList.len", len(u.dropList))
	for i, r := range u.dropList {
		h.Enter("dropList", i)
		h.U64("id", r.ID)
		h.Leave()
	}
	h.Int("dropBank", u.dropBank)
	h.I64("dropRow", u.dropRow)
}
