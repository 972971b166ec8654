package icnt

import (
	"fmt"
	"strings"

	"lazydram/internal/obs"
)

// DigestInto folds the network's in-flight state into h: per-port queue
// contents in FIFO order (source, delivery time) plus the per-port delivery
// guard and the injection counter. Payload contents are folded by fn, which
// the caller supplies because payload types live upstream of this package; a
// nil fn digests packet metadata only.
func (n *Network) DigestInto(h *obs.Hasher, fn func(payload any, h *obs.Hasher)) {
	h.U64(n.sent)
	for dst := range n.queues {
		q := &n.queues[dst]
		h.Int(q.n)
		h.U64(n.lastPop[dst])
		for i := 0; i < q.n; i++ {
			p := q.at(i)
			h.Int(p.Src)
			h.U64(p.readyAt)
			if fn != nil {
				fn(p.Payload, h)
			}
		}
	}
}

// DumpState renders per-port occupancy for lazydiverge's state diffs.
func (n *Network) DumpState() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sent=%d pending=%d\n", n.sent, n.Pending())
	for dst := range n.queues {
		q := &n.queues[dst]
		if q.n == 0 {
			continue
		}
		fmt.Fprintf(&sb, "port[%d]: depth=%d headSrc=%d headReadyAt=%d\n",
			dst, q.n, q.at(0).Src, q.at(0).readyAt)
	}
	return sb.String()
}
