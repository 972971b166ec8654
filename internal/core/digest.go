package core

import (
	"math/bits"

	"lazydram/internal/obs"
)

// DigestInto folds the SM's execution progress into h: retirement counters,
// the outbox, the runnable queue (order-sensitive — issue order matters),
// the LSU and its parked queue, every resident warp's progress state, and
// the L1 cache/MSHR. Register files are deliberately NOT hashed: they are
// large, and any data divergence reaches them only through a load reply whose
// bytes the partition traffic digests already cover. The wake wheel is not
// hashed either — its contents are derived from the warps' readyAt fields.
func (s *SM) DigestInto(h *obs.Hasher) {
	h.U64("insts", s.insts)
	h.Int("outstanding", s.outstanding)
	h.Int("nextSeed", s.nextSeed)
	h.Int("outbox.len", len(s.outbox))
	for i, r := range s.outbox {
		h.Enter("outbox", i)
		h.U64("line", r.LineAddr)
		h.Bool("load", r.Load)
		h.U64("issuedAt", r.IssuedAt)
		h.Int("words", bits.OnesCount32(r.Mask)) // the words stored
		h.Leave()
	}
	h.Int("runnable.len", len(s.runnable))
	for i, slot := range s.runnable {
		h.Enter("runnable", i)
		h.Int("slot", int(slot))
		h.Leave()
	}
	h.Int("lsuQueue.len", len(s.lsuQueue))
	for i, slot := range s.lsuQueue {
		h.Enter("lsuQueue", i)
		h.Int("slot", int(slot))
		h.Leave()
	}
	if op := s.lsu; op != nil {
		h.Enter("lsu")
		h.Int("slot", int(op.w.slot))
		h.Int("kind", int(op.kind))
		h.Int("numLines", op.numLines)
		h.Int("nextLine", op.nextLine)
		h.Int("outstanding", op.outstanding)
		h.Bool("async", op.async)
		h.Leave()
	} else {
		h.Int("lsu", -1)
	}
	for i, w := range s.warps {
		h.Enter("warp", i)
		h.Int("id", w.id)
		h.U64("readyAt", w.readyAt)
		h.Bool("blocked", w.blocked)
		h.Bool("hasOp", w.hasOp)
		h.Bool("finished", w.finished)
		h.Int("asyncOps", w.asyncOps)
		h.Bool("joinWaiting", w.joinWaiting)
		h.Leave()
	}
	h.Enter("l1")
	s.l1.DigestInto(h)
	h.Leave()
	h.Enter("mshr")
	s.mshr.DigestInto(h)
	h.Leave()
}
