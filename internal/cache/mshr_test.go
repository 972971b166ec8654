package cache

import (
	"math/rand"
	"testing"

	"lazydram/internal/obs"
)

// collidingLines returns n distinct line addresses whose home slot in m is
// home, so they share (and extend) one probe chain.
func collidingLines(m *MSHR, home, n int) []uint64 {
	var out []uint64
	for a := uint64(0); len(out) < n; a += LineSize {
		if m.home(a) == home {
			out = append(out, a)
		}
	}
	return out
}

// checkTable verifies the open-addressing invariant the lookups rely on:
// every slot from an entry's home up to the slot holding it is occupied, so
// no probe for a present line stops early at a hole.
func checkTable(t *testing.T, m *MSHR) {
	t.Helper()
	mask := len(m.slots) - 1
	n := 0
	for i, s := range m.slots {
		if s.e == nil {
			continue
		}
		n++
		if s.line != s.e.LineAddr {
			t.Fatalf("slot %d keyed %#x holds entry for %#x", i, s.line, s.e.LineAddr)
		}
		for j := m.home(s.line); j != i; j = (j + 1) & mask {
			if m.slots[j].e == nil {
				t.Fatalf("line %#x in slot %d: hole at %d breaks its probe chain", s.line, i, j)
			}
		}
	}
	if n != m.Len() {
		t.Fatalf("table holds %d entries, Len() = %d", n, m.Len())
	}
}

func TestMSHRWrapAroundDelete(t *testing.T) {
	m := NewMSHR(8, 4)
	last := len(m.slots) - 1
	// Three lines homed at the last slot occupy last, 0 and 1; a fourth
	// homed at 0 lands in 2.
	chain := collidingLines(m, last, 3)
	zero := collidingLines(m, 0, 1)[0]
	for _, a := range append(chain, zero) {
		m.Allocate(a)
	}
	checkTable(t, m)
	// Deleting the chain's head must shift the wrapped entries back across
	// the table boundary, including the line whose home is slot 0.
	m.Remove(chain[0])
	checkTable(t, m)
	for _, a := range append(chain[1:], zero) {
		if e := m.Lookup(a); e == nil || e.LineAddr != a {
			t.Fatalf("line %#x lost after wrap-around delete", a)
		}
	}
	if m.Lookup(chain[0]) != nil {
		t.Fatal("removed line still found")
	}
}

// TestMSHRMatchesMapModel drives random Allocate/Lookup/Remove/Release
// sequences, concentrated on a few colliding home slots at both ends of the
// table, against a plain-map reference.
func TestMSHRMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMSHR(12, 4)
		size := len(m.slots)
		var pool []uint64
		for _, home := range []int{size - 2, size - 1, 0, 1, size / 2} {
			pool = append(pool, collidingLines(m, home, 6)...)
		}
		ref := map[uint64]*MSHREntry{}
		for step := 0; step < 4000; step++ {
			a := pool[rng.Intn(len(pool))]
			switch op := rng.Intn(3); {
			case op == 0 && ref[a] == nil && !m.Full():
				e := m.Allocate(a)
				if e.LineAddr != a || len(e.Targets) != 0 || len(e.Stores) != 0 || e.HasStore || e.Issued {
					t.Fatalf("seed %d step %d: Allocate(%#x) returned a dirty entry %+v", seed, step, a, e)
				}
				e.Targets = append(e.Targets, step)
				e.Stores = append(e.Stores, PendingStore{Addr: a, Val: uint64(step), N: 4})
				e.HasStore = true
				ref[a] = e
			case op == 1 && ref[a] != nil:
				e := ref[a]
				m.Remove(a)
				delete(ref, a)
				if e.LineAddr != a || len(e.Targets) != 1 {
					t.Fatalf("seed %d step %d: Remove(%#x) disturbed the entry %+v", seed, step, a, e)
				}
				m.Release(e)
			default:
				if got := m.Lookup(a); got != ref[a] {
					t.Fatalf("seed %d step %d: Lookup(%#x) = %p, model %p", seed, step, a, got, ref[a])
				}
			}
			if m.Len() != len(ref) || m.Full() != (len(ref) >= 12) {
				t.Fatalf("seed %d step %d: Len %d Full %v, model %d", seed, step, m.Len(), m.Full(), len(ref))
			}
			checkTable(t, m)
		}
		for a, e := range ref {
			if m.Lookup(a) != e {
				t.Fatalf("seed %d: final Lookup(%#x) disagrees with the model", seed, a)
			}
		}
	}
}

// TestMSHRDigestOrderIndependent builds the same entry set in different
// insertion (and removal) orders; the digest must not see the difference.
func TestMSHRDigestOrderIndependent(t *testing.T) {
	m := NewMSHR(10, 4)
	lines := append(collidingLines(m, 3, 4), collidingLines(m, len(m.slots)-1, 4)...)
	// Two more lines on the first chain, allocated before and removed after
	// the real set, shift where the real entries land.
	extra := collidingLines(m, 3, 6)[4:]
	digest := func(perm []int, churn bool) uint64 {
		m := NewMSHR(10, 4)
		if churn {
			for _, a := range extra {
				m.Allocate(a)
			}
		}
		for _, i := range perm {
			e := m.Allocate(lines[i])
			e.Targets = append(e.Targets, i)
			e.Stores = append(e.Stores, PendingStore{Addr: lines[i] + 4, Val: uint64(i), N: 4})
			e.HasStore = i%2 == 0
			e.Issued = i%3 == 0
		}
		if churn {
			for _, a := range extra {
				e := m.Lookup(a)
				m.Remove(a)
				m.Release(e)
			}
		}
		h := obs.NewHasher()
		m.DigestInto(h)
		return h.Sum()
	}
	rng := rand.New(rand.NewSource(7))
	want := digest(rng.Perm(len(lines)), false)
	for i := 0; i < 20; i++ {
		if got := digest(rng.Perm(len(lines)), i%2 == 1); got != want {
			t.Fatalf("permutation %d: digest %#x, want %#x", i, got, want)
		}
	}
}
