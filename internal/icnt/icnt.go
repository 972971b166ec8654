// Package icnt models the SM-to-memory-partition interconnect: one crossbar
// per direction (Table I), reduced to its locality-relevant properties — a
// fixed traversal latency, one packet per destination port per cycle, and
// finite per-port queues with backpressure. The islip VC/switch allocation of
// the paper's simulator is an arbitration detail that does not change which
// rows are touched; bandwidth and latency do, and both are modelled here
// (see DESIGN.md, "Known deviations").
package icnt

import "math/bits"

// Packet is one message in flight.
type Packet struct {
	Src     int
	Dst     int
	Payload any
	readyAt uint64
}

// Config sizes a network.
type Config struct {
	// Ports is the number of destination ports.
	Ports int
	// LatencyCycles is the crossbar traversal latency.
	LatencyCycles uint64
	// QueueDepth is the per-destination-port buffer capacity.
	QueueDepth int
}

// DefaultConfig returns the configuration used for both directions of the
// simulated GPU: 8-cycle traversal, 32-packet port buffers.
func DefaultConfig(ports int) Config {
	return Config{Ports: ports, LatencyCycles: 8, QueueDepth: 32}
}

// port is one destination port's FIFO: a ring of QueueDepth slots, so a
// delivery moves no queued packet and a send never allocates.
type port struct {
	buf  []Packet
	head int
	n    int
}

// at returns the i-th queued packet (0 is the head); i must be below n.
func (q *port) at(i int) *Packet {
	if i += q.head; i >= len(q.buf) {
		i -= len(q.buf)
	}
	return &q.buf[i]
}

// Network is a one-direction crossbar. It is not safe for concurrent use.
type Network struct {
	cfg    Config
	queues []port
	// lastPop tracks the last cycle a packet was delivered per port, to
	// enforce one delivery per port per cycle.
	lastPop []uint64
	// busy has bit d set while port d holds a packet, so a consumer can
	// visit the non-empty ports only (NextBusy).
	busy []uint64
	sent uint64
}

// New creates a network.
func New(cfg Config) *Network {
	n := &Network{
		cfg:     cfg,
		queues:  make([]port, cfg.Ports),
		lastPop: make([]uint64, cfg.Ports),
		busy:    make([]uint64, (cfg.Ports+63)/64),
	}
	for i := range n.lastPop {
		n.queues[i].buf = make([]Packet, max(cfg.QueueDepth, 0))
		n.lastPop[i] = ^uint64(0) // no pops yet
	}
	return n
}

// CanSend reports whether the destination port can buffer another packet.
func (n *Network) CanSend(dst int) bool {
	return n.queues[dst].n < n.cfg.QueueDepth
}

// Send injects a packet at cycle now. It returns false (and drops nothing)
// when the destination buffer is full; the caller must retry later.
func (n *Network) Send(src, dst int, payload any, now uint64) bool {
	if !n.CanSend(dst) {
		return false
	}
	q := &n.queues[dst]
	*q.at(q.n) = Packet{Src: src, Dst: dst, Payload: payload, readyAt: now + n.cfg.LatencyCycles}
	q.n++
	n.busy[dst/64] |= 1 << (dst % 64)
	n.sent++
	return true
}

// Recv delivers at most one packet to dst at cycle now, in FIFO order.
func (n *Network) Recv(dst int, now uint64) (Packet, bool) {
	q := &n.queues[dst]
	if q.n == 0 || q.at(0).readyAt > now || n.lastPop[dst] == now {
		return Packet{}, false
	}
	h := q.at(0)
	p := *h
	*h = Packet{}
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	if q.n--; q.n == 0 {
		n.busy[dst/64] &^= 1 << (dst % 64)
	}
	n.lastPop[dst] = now
	return p, true
}

// NextBusy returns the lowest port at or above from that holds a packet,
// delivered yet or not, or -1 if there is none.
func (n *Network) NextBusy(from int) int {
	for i := from / 64; i < len(n.busy); i++ {
		w := n.busy[i]
		if i == from/64 {
			w &^= 1<<(from%64) - 1
		}
		if w != 0 {
			return 64*i + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Peek returns the head packet for dst without removing it, if deliverable.
func (n *Network) Peek(dst int, now uint64) (Packet, bool) {
	q := &n.queues[dst]
	if q.n == 0 || q.at(0).readyAt > now || n.lastPop[dst] == now {
		return Packet{}, false
	}
	return *q.at(0), true
}

// Pending returns the total number of packets in flight.
func (n *Network) Pending() int {
	t := 0
	for i := range n.queues {
		t += n.queues[i].n
	}
	return t
}

// Sent returns the total number of packets ever injected.
func (n *Network) Sent() uint64 { return n.sent }
