package core

import (
	"fmt"
	"math/bits"
	"strings"

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
	h.U64(s.insts)
	h.Int(s.outstanding)
	h.Int(s.nextSeed)
	h.Int(len(s.outbox))
	for _, r := range s.outbox {
		h.U64(r.LineAddr)
		h.Bool(r.Load)
		h.U64(r.IssuedAt)
		h.Int(bits.OnesCount32(r.Mask)) // the words stored
	}
	h.Int(len(s.runnable))
	for _, slot := range s.runnable {
		h.Int(int(slot))
	}
	h.Int(len(s.lsuQueue))
	for _, slot := range s.lsuQueue {
		h.Int(int(slot))
	}
	if op := s.lsu; op != nil {
		h.Int(int(op.w.slot))
		h.Int(int(op.kind))
		h.Int(op.numLines)
		h.Int(op.nextLine)
		h.Int(op.outstanding)
		h.Bool(op.async)
	} else {
		h.Int(-1)
	}
	for _, w := range s.warps {
		h.Int(w.id)
		h.U64(w.readyAt)
		h.Bool(w.blocked)
		h.Bool(w.hasOp)
		h.Bool(w.finished)
		h.Int(w.asyncOps)
		h.Bool(w.joinWaiting)
	}
	s.l1.DigestInto(h)
	s.mshr.DigestInto(h)
}

// DumpState renders the SM's progress for lazydiverge's state diffs: the
// counters, queue depths, unfinished warps, and the L1 summary.
func (s *SM) DumpState() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "insts=%d outstanding=%d nextSeed=%d outbox=%d runnable=%d lsuQueue=%d mshr=%d\n",
		s.insts, s.outstanding, s.nextSeed, len(s.outbox), len(s.runnable), len(s.lsuQueue), s.mshr.Len())
	if op := s.lsu; op != nil {
		fmt.Fprintf(&sb, "lsu: warp=%d kind=%d line=%d/%d outstanding=%d async=%v\n",
			op.w.id, op.kind, op.nextLine, op.numLines, op.outstanding, op.async)
	}
	for _, w := range s.warps {
		if w.finished {
			continue
		}
		fmt.Fprintf(&sb, "warp[%d]: readyAt=%d blocked=%v hasOp=%v async=%d join=%v\n",
			w.id, w.readyAt, w.blocked, w.hasOp, w.asyncOps, w.joinWaiting)
	}
	sb.WriteString("l1: ")
	sb.WriteString(s.l1.DumpState())
	return sb.String()
}
