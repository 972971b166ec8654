package cache

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"lazydram/internal/obs"
)

// DigestInto folds the cache's tag/flag/LRU state and access tick into h, in
// set/way order: a valid line as its tag<<2 | approx<<1 | dirty word and its
// LRU stamp, an invalid one as the single word 1<<63. Line data bytes are
// deliberately NOT hashed: hashing every resident byte per sample would
// dominate the digest-sampling overhead budget, and data divergence is
// already covered by the partitions' rolling traffic digests, which fold
// every fill and write-back as it happens.
func (c *Cache) DigestInto(h *obs.Hasher) {
	h.U64("tick", c.tick)
	for i := range c.sets {
		l := &c.sets[i]
		h.Enter("line", i)
		if l.valid {
			flags := uint64(0)
			if l.dirty {
				flags |= 1
			}
			if l.approx {
				flags |= 2
			}
			h.U64("tagFlags", l.tag<<2|flags)
			h.U64("lru", l.lru)
		} else {
			h.U64("invalid", 1<<63)
		}
		h.Leave()
	}
}

// HashStoreWords folds a store's words into h as the (addr, val, n) word list
// of a per-word store record, in ascending address order: bit w of mask is
// the 4-byte word at line+4*w, its value read from data. For a store whose
// lanes write distinct words in ascending address order this is exactly the
// lane-order list it replaced. That holds for every bundled store:
// StoreSeqF32, and FWT's scatters, whose indices strictly increase per warp.
func HashStoreWords(h *obs.Hasher, line uint64, mask uint32, data *[LineSize]byte) {
	for ; mask != 0; mask &= mask - 1 {
		w := bits.TrailingZeros32(mask)
		off := 4 * uint64(w)
		h.Enter("word", w)
		h.U64("addr", line+off)
		h.U64("val", uint64(binary.LittleEndian.Uint32(data[off:])))
		h.Int("n", 4)
		h.Leave()
	}
}

// DigestInto folds the MSHR file into h. Table order depends on the hash and
// on insertion history, so entries are visited in sorted line-address order;
// within an entry, targets contribute only their count (they are opaque
// upstream pointers), while pending stores contribute their full contents
// as one word list (see HashStoreWords).
func (m *MSHR) DigestInto(h *obs.Hasher) {
	h.Int("len", m.n)
	if m.n == 0 {
		return
	}
	lines := make([]uint64, 0, m.n)
	for _, s := range m.slots {
		if s.e != nil {
			lines = append(lines, s.line)
		}
	}
	slices.Sort(lines)
	for k, line := range lines {
		e := m.Lookup(line)
		h.Enter("entry", k)
		h.U64("line", e.LineAddr)
		h.Int("targets", len(e.Targets))
		words := 0
		for i := range e.Stores {
			words += bits.OnesCount32(e.Stores[i].Mask)
		}
		h.Int("words", words)
		for i := range e.Stores {
			h.Enter("store", i)
			HashStoreWords(h, e.LineAddr, e.Stores[i].Mask, &e.Stores[i].Data)
			h.Leave()
		}
		h.Bool("hasStore", e.HasStore)
		h.Bool("issued", e.Issued)
		h.Leave()
	}
}
