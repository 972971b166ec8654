package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refItem and refHeap drive container/heap, the algorithm readyHeap must
// reproduce pop for pop.
type refItem struct {
	readyAt uint64
	id      int
}

type refHeap []refItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].readyAt < h[j].readyAt }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestReadyHeapMatchesContainerHeap feeds random push/pop sequences with many
// equal readyAt keys to both heaps: ties must pop in exactly container/heap's
// order, because the order of equal-time replies decides simulated timing.
func TestReadyHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := 1 + rng.Intn(4) // a handful of distinct keys: mostly ties
		var got readyHeap[int]
		var want refHeap
		for step := 0; step < 2000; step++ {
			if len(want) == 0 || rng.Intn(5) < 3 {
				at := uint64(step/64 + rng.Intn(keys))
				got.push(at, step)
				heap.Push(&want, refItem{at, step})
				continue
			}
			g, w := got.pop(), heap.Pop(&want).(refItem)
			if g.readyAt != w.readyAt || g.v != w.id {
				t.Fatalf("seed %d step %d: popped (%d, #%d), container/heap (%d, #%d)",
					seed, step, g.readyAt, g.v, w.readyAt, w.id)
			}
			if got.due(w.readyAt) != (len(want) > 0 && want[0].readyAt <= w.readyAt) {
				t.Fatalf("seed %d step %d: due disagrees with the reference head", seed, step)
			}
		}
		for len(want) > 0 {
			g, w := got.pop(), heap.Pop(&want).(refItem)
			if g.v != w.id {
				t.Fatalf("seed %d drain: popped #%d, container/heap #%d", seed, g.v, w.id)
			}
		}
		if len(got) != 0 {
			t.Fatalf("seed %d: %d entries left after draining", seed, len(got))
		}
	}
}
