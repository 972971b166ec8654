package cache

import (
	"cmp"
	"fmt"
	"slices"

	"lazydram/internal/obs"
)

// DigestInto folds the cache's tag/flag/LRU state and access tick into h, in
// set/way order. Line data bytes are deliberately NOT hashed: hashing every
// resident byte per sample would dominate the digest-sampling overhead
// budget, and data divergence is already covered by the partitions' rolling
// traffic digests, which fold every fill and write-back as it happens.
func (c *Cache) DigestInto(h *obs.Hasher) {
	h.U64(c.tick)
	for i := range c.sets {
		l := &c.sets[i]
		if !l.valid {
			h.U64(1 << 63)
			continue
		}
		flags := uint64(0)
		if l.dirty {
			flags |= 1
		}
		if l.approx {
			flags |= 2
		}
		h.U64(l.tag<<2 | flags)
		h.U64(l.lru)
	}
}

// DumpState renders a compact cache summary for lazydiverge's state diffs:
// the access tick plus valid/dirty/approx line counts.
func (c *Cache) DumpState() string {
	var valid, dirty, approx int
	for i := range c.sets {
		l := &c.sets[i]
		if !l.valid {
			continue
		}
		valid++
		if l.dirty {
			dirty++
		}
		if l.approx {
			approx++
		}
	}
	return fmt.Sprintf("tick=%d valid=%d dirty=%d approx=%d lines=%d\n",
		c.tick, valid, dirty, approx, len(c.sets))
}

// DigestInto folds the MSHR file into h. Table order depends on the hash and
// on insertion history, so entries are visited in sorted line-address order;
// within an entry, targets contribute only their count (they are opaque
// upstream pointers), while pending stores contribute their full contents.
func (m *MSHR) DigestInto(h *obs.Hasher) {
	h.Int(m.n)
	if m.n == 0 {
		return
	}
	es := make([]*MSHREntry, 0, m.n)
	for _, s := range m.slots {
		if s.e != nil {
			es = append(es, s.e)
		}
	}
	slices.SortFunc(es, func(a, b *MSHREntry) int { return cmp.Compare(a.LineAddr, b.LineAddr) })
	for _, e := range es {
		h.U64(e.LineAddr)
		h.Int(len(e.Targets))
		h.Int(len(e.Stores))
		for _, s := range e.Stores {
			h.U64(s.Addr)
			h.U64(s.Val)
			h.Int(s.N)
		}
		h.Bool(e.HasStore)
		h.Bool(e.Issued)
	}
}
