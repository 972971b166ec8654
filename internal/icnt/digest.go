package icnt

import "lazydram/internal/obs"

// DigestInto folds the network's in-flight state into h: per-port queue
// contents in FIFO order (source, delivery time) plus the per-port delivery
// guard and the injection counter. Payload contents are folded by fn, which
// the caller supplies because payload types live upstream of this package.
func (n *Network) DigestInto(h *obs.Hasher, fn func(payload any, h *obs.Hasher)) {
	h.U64("sent", n.sent)
	for dst := range n.queues {
		q := &n.queues[dst]
		h.Enter("port", dst)
		h.Int("len", q.n)
		h.U64("lastPop", n.lastPop[dst])
		for i := 0; i < q.n; i++ {
			p := q.at(i)
			h.Enter("pkt", i)
			h.Int("src", p.Src)
			h.U64("readyAt", p.readyAt)
			fn(p.Payload, h)
			h.Leave()
		}
		h.Leave()
	}
}
