package sim

import (
	"fmt"
	"testing"
)

// TestShardPoolRunsEachItemOnce dispatches phases of varying size and span
// on pools of two and three workers: every queued item must run exactly
// once per phase with that phase's kind and cycle, and what a helper wrote must be
// visible once dispatch returns. Under -race it also checks that the
// barrier orders the helpers' writes before the dispatcher's reads.
func TestShardPoolRunsEachItemOnce(t *testing.T) {
	const items = 37
	for _, workers := range []int{2, 3} {
		var runs, last [items]uint64
		sp := newShardPool(workers, func(kind phaseKind, i int, now uint64) {
			if kind != phaseKind(now%3) {
				t.Errorf("item %d at cycle %d ran as kind %d", i, now, kind)
			}
			runs[i]++
			last[i] = now
		})
		var want [items]uint64
		for now := uint64(1); now <= 3000; now++ {
			n := int(now*7) % (items + 1)
			sp.begin(1 + int(now)%workers)
			sp.addRange(n)
			for i := 0; i < n; i++ {
				want[i]++
			}
			sp.dispatch(phaseKind(now%3), now, now%5 == 0)
			for i := 0; i < n; i++ {
				if runs[i] != want[i] || last[i] != now {
					t.Fatalf("%d workers, cycle %d: item %d ran %d times (want %d), last at cycle %d",
						workers, now, i, runs[i], want[i], last[i])
				}
			}
		}
		sp.close()
		sp.close()
	}
}

// TestShardPoolPanicReachesCaller panics in an SM item that a helper runs:
// worker 0 holds its own item until the helper has started the other one,
// so the panic cannot happen on the dispatching goroutine. dispatch must
// re-panic with that value on the caller, once the phase is finished, and
// the pool must stay usable and close cleanly.
func TestShardPoolPanicReachesCaller(t *testing.T) {
	started := make(chan struct{})
	var ran [2]int
	sp := newShardPool(2, func(kind phaseKind, i int, now uint64) {
		switch {
		case now == 1 && i == 0:
			<-started
			ran[i]++
		case now == 1 && i == 1:
			close(started)
			panic(fmt.Sprintf("sm %d at cycle %d", i, now))
		default:
			ran[i]++
		}
	})
	defer sp.close()
	got := func() (p any) {
		defer func() { p = recover() }()
		sp.begin(2)
		sp.addRange(2)
		sp.dispatch(phaseSM, 1, false)
		return nil
	}()
	if got != "sm 1 at cycle 1" {
		t.Fatalf("dispatch recovered %v, want the helper's panic", got)
	}
	if ran != [2]int{1, 0} {
		t.Fatalf("items ran %v times, want [1 0]", ran)
	}
	sp.begin(2)
	sp.addRange(2)
	sp.dispatch(phaseSM, 2, false)
	if ran != [2]int{2, 1} {
		t.Fatalf("after the panic, items ran %v times in all, want [2 1]", ran)
	}
}
