package sim

import (
	"fmt"
	"testing"
)

// TestShardPoolRunsEachItemOnce dispatches phases of varying size on the
// two-worker SM pool: every queued item must run exactly once per phase with
// that phase's cycle, and what the helper wrote must be visible once
// dispatch returns. Under -race it also checks that the barrier orders the
// helper's writes before the dispatcher's reads.
func TestShardPoolRunsEachItemOnce(t *testing.T) {
	const items = 37
	var runs, last [items]uint64
	sp := newSMPool(func(i int, now uint64) {
		runs[i]++
		last[i] = now
	})
	var want [items]uint64
	for now := uint64(1); now <= 3000; now++ {
		n := int(now*7) % (items + 1)
		for i := 0; i < n; i++ {
			sp.add(i)
			want[i]++
		}
		sp.dispatch(now)
		for i := 0; i < n; i++ {
			if runs[i] != want[i] || last[i] != now {
				t.Fatalf("cycle %d: item %d ran %d times (want %d), last at cycle %d",
					now, i, runs[i], want[i], last[i])
			}
		}
	}
	sp.close()
	sp.close()
}

// TestShardPoolPanicReachesCaller panics in an SM item that the helper runs:
// worker 0 holds its own item until the helper has started the other one,
// so the panic cannot happen on the dispatching goroutine. dispatch must
// re-panic with that value on the caller, once the phase is finished, and
// the pool must stay usable and close cleanly.
func TestShardPoolPanicReachesCaller(t *testing.T) {
	started := make(chan struct{})
	var ran [2]int
	sp := newSMPool(func(i int, now uint64) {
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
		sp.add(0)
		sp.add(1)
		sp.dispatch(1)
		return nil
	}()
	if got != "sm 1 at cycle 1" {
		t.Fatalf("dispatch recovered %v, want the helper's panic", got)
	}
	if ran != [2]int{1, 0} {
		t.Fatalf("items ran %v times, want [1 0]", ran)
	}
	sp.add(0)
	sp.add(1)
	sp.dispatch(2)
	if ran != [2]int{2, 1} {
		t.Fatalf("after the panic, items ran %v times in all, want [2 1]", ran)
	}
}
