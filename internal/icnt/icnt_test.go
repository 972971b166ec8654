package icnt_test

import (
	"fmt"
	"testing"

	"lazydram/internal/icnt"
)

func cfg() icnt.Config {
	return icnt.Config{Ports: 4, LatencyCycles: 8, QueueDepth: 2}
}

func TestTraversalLatency(t *testing.T) {
	n := icnt.New(cfg())
	if !n.Send(0, 1, "x", 10) {
		t.Fatal("send failed")
	}
	if _, ok := n.Recv(1, 17); ok {
		t.Fatal("packet delivered before the traversal latency")
	}
	p, ok := n.Recv(1, 18)
	if !ok || p.Payload != "x" || p.Src != 0 {
		t.Fatalf("packet not delivered at latency: %+v ok=%v", p, ok)
	}
}

func TestFIFOPerPort(t *testing.T) {
	n := icnt.New(cfg())
	n.Send(0, 1, "a", 0)
	n.Send(2, 1, "b", 0)
	p1, _ := n.Recv(1, 100)
	p2, _ := n.Recv(1, 101)
	if p1.Payload != "a" || p2.Payload != "b" {
		t.Fatalf("out of order: %v, %v", p1.Payload, p2.Payload)
	}
}

func TestOneDeliveryPerPortPerCycle(t *testing.T) {
	n := icnt.New(cfg())
	n.Send(0, 1, "a", 0)
	n.Send(0, 1, "b", 1)
	if _, ok := n.Recv(1, 50); !ok {
		t.Fatal("first delivery failed")
	}
	if _, ok := n.Recv(1, 50); ok {
		t.Fatal("two deliveries to one port in one cycle")
	}
	if _, ok := n.Recv(1, 51); !ok {
		t.Fatal("second delivery failed on the next cycle")
	}
}

func TestBackpressure(t *testing.T) {
	n := icnt.New(cfg())
	if !n.Send(0, 3, 1, 0) || !n.Send(0, 3, 2, 0) {
		t.Fatal("sends within depth must succeed")
	}
	if n.CanSend(3) {
		t.Fatal("CanSend true at capacity")
	}
	if n.Send(0, 3, 3, 0) {
		t.Fatal("send beyond depth must fail")
	}
	// Other ports are unaffected.
	if !n.CanSend(2) {
		t.Fatal("unrelated port blocked")
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	n := icnt.New(cfg())
	n.Send(0, 1, "a", 0)
	if _, ok := n.Peek(1, 100); !ok {
		t.Fatal("peek failed")
	}
	if _, ok := n.Recv(1, 100); !ok {
		t.Fatal("recv after peek failed")
	}
	if n.Pending() != 0 {
		t.Fatal("packet still pending after recv")
	}
}

func TestPendingAndSentCounters(t *testing.T) {
	n := icnt.New(cfg())
	n.Send(0, 0, nil, 0)
	n.Send(0, 1, nil, 0)
	if n.Pending() != 2 || n.Sent() != 2 {
		t.Fatalf("pending=%d sent=%d, want 2/2", n.Pending(), n.Sent())
	}
}

// TestNextBusyVisitsNonEmptyPorts checks the busy-port set across several
// words of ports: NextBusy lists exactly the ports holding a packet,
// delivered yet or not, in ascending order, and a port leaves the set with
// its last packet.
func TestNextBusyVisitsNonEmptyPorts(t *testing.T) {
	n := icnt.New(icnt.Config{Ports: 150, LatencyCycles: 8, QueueDepth: 2})
	busy := func() []int {
		var ps []int
		for p := n.NextBusy(0); p >= 0; p = n.NextBusy(p + 1) {
			ps = append(ps, p)
		}
		return ps
	}
	if ps := busy(); ps != nil {
		t.Fatalf("empty network lists busy ports %v", ps)
	}
	for _, p := range []int{149, 0, 64, 63, 127, 64} {
		n.Send(0, p, nil, 0)
	}
	if got, want := fmt.Sprint(busy()), "[0 63 64 127 149]"; got != want {
		t.Fatalf("busy ports %s, want %s", got, want)
	}
	if n.NextBusy(150) != -1 || n.NextBusy(65) != 127 {
		t.Fatalf("NextBusy(150)=%d NextBusy(65)=%d, want -1 and 127", n.NextBusy(150), n.NextBusy(65))
	}
	n.Recv(63, 100)
	n.Recv(64, 100) // one of port 64's two packets
	n.Recv(149, 3)  // not deliverable yet: the port stays busy
	if got, want := fmt.Sprint(busy()), "[0 64 127 149]"; got != want {
		t.Fatalf("after receives, busy ports %s, want %s", got, want)
	}
}
