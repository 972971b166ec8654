package cache

// LineStore is one store transaction waiting for its line fill
// (write-allocate caches merge the store data when the fill returns): the
// 4-byte words whose bit is set in Mask take their bytes from Data.
type LineStore struct {
	Mask uint32
	Data [LineSize]byte
}

// MergeInto applies the pending stores to data in arrival order, so a later
// store to a word overwrites an earlier one, and returns the union of their
// masks.
func (e *MSHREntry) MergeInto(data *[LineSize]byte) uint32 {
	var mask uint32
	for i := range e.Stores {
		s := &e.Stores[i]
		mergeWords(data, s.Mask, &s.Data)
		mask |= s.Mask
	}
	return mask
}

// MSHREntry tracks one outstanding line miss and the requests merged into it.
type MSHREntry struct {
	LineAddr uint64
	// Targets are opaque upstream waiters (e.g. warp transaction handles)
	// notified when the fill arrives.
	Targets []any
	// Stores are pending store transactions merged into the line at fill
	// time, in arrival order.
	Stores []LineStore
	// HasStore marks entries allocated (or joined) by a store; the filled
	// line becomes dirty.
	HasStore bool
	// Issued marks that the downstream request has left this level.
	Issued bool
}

// MSHR is a miss-status holding register file with same-line merging.
//
// Entries live in a fixed open-addressed table (linear probing, backward-shift
// delete) sized to a power of two of at least twice the entry capacity, so a
// probe chain stays short and no lookup hashes through a map. Removed entries
// go back to a free list through Release and are reused, with the capacity of
// their Targets slice, by later allocations.
type MSHR struct {
	slots      []mshrSlot
	shift      uint // 64 - log2(len(slots))
	n          int
	free       []*MSHREntry
	maxEntries int
	maxTargets int
}

// mshrSlot is one table slot; e == nil marks it empty. The line address is
// kept beside the pointer so a probe compares keys without dereferencing
// every entry it passes.
type mshrSlot struct {
	line uint64
	e    *MSHREntry
}

// NewMSHR creates an MSHR file with the given entry capacity and per-entry
// merge capacity.
func NewMSHR(maxEntries, maxTargets int) *MSHR {
	size, log := 1, uint(0)
	for size < 2*maxEntries {
		size <<= 1
		log++
	}
	return &MSHR{
		slots:      make([]mshrSlot, size),
		shift:      64 - log,
		maxEntries: maxEntries,
		maxTargets: maxTargets,
	}
}

// home returns lineAddr's preferred slot (Fibonacci hashing: the top bits of
// a multiplicative hash, which spreads the line-aligned addresses' zero low
// bits across the table).
func (m *MSHR) home(lineAddr uint64) int {
	return int((lineAddr * 0x9E3779B97F4A7C15) >> m.shift)
}

// find returns the slot holding lineAddr's entry, or -1.
func (m *MSHR) find(lineAddr uint64) int {
	mask := len(m.slots) - 1
	for i := m.home(lineAddr); ; i = (i + 1) & mask {
		if s := &m.slots[i]; s.e == nil {
			return -1
		} else if s.line == lineAddr {
			return i
		}
	}
}

// Lookup returns the entry for lineAddr, or nil.
func (m *MSHR) Lookup(lineAddr uint64) *MSHREntry {
	if i := m.find(lineAddr); i >= 0 {
		return m.slots[i].e
	}
	return nil
}

// Full reports whether no new entry can be allocated.
func (m *MSHR) Full() bool { return m.n >= m.maxEntries }

// CanMerge reports whether another target fits in the entry.
func (m *MSHR) CanMerge(e *MSHREntry) bool { return len(e.Targets) < m.maxTargets }

// Allocate creates an entry for lineAddr. The caller must have checked Full
// and that no entry exists.
func (m *MSHR) Allocate(lineAddr uint64) *MSHREntry {
	if m.Full() {
		panic("cache: MSHR allocate when full")
	}
	mask := len(m.slots) - 1
	i := m.home(lineAddr)
	for ; m.slots[i].e != nil; i = (i + 1) & mask {
		if m.slots[i].line == lineAddr {
			panic("cache: duplicate MSHR allocation")
		}
	}
	var e *MSHREntry
	if k := len(m.free); k > 0 {
		e = m.free[k-1]
		m.free = m.free[:k-1]
	} else {
		e = &MSHREntry{}
	}
	e.LineAddr = lineAddr
	m.slots[i] = mshrSlot{line: lineAddr, e: e}
	m.n++
	return e
}

// Remove takes the entry for lineAddr out of the table (a no-op when there is
// none). The entry itself stays intact for the caller to consume; hand it to
// Release afterwards.
func (m *MSHR) Remove(lineAddr uint64) {
	i := m.find(lineAddr)
	if i < 0 {
		return
	}
	// Backward-shift delete: walk the probe chain past the hole and pull
	// back every entry whose home slot does not lie cyclically in (i, j], so
	// no chain is broken and no tombstone is left behind.
	mask := len(m.slots) - 1
	for j := (i + 1) & mask; m.slots[j].e != nil; j = (j + 1) & mask {
		k := m.home(m.slots[j].line)
		if (j > i && (k <= i || k > j)) || (j < i && k <= i && k > j) {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = mshrSlot{}
	m.n--
}

// Release returns a removed entry to the free list for reuse. Call it only
// after the entry's Targets and Stores have been consumed: the next Allocate
// may hand the same entry, and the same Targets storage, to another line.
// Stores storage is dropped rather than kept: merged store bursts make it
// large, few misses are stores, and keeping it measurably grew the live heap
// of write-heavy runs while saving almost no allocations.
func (m *MSHR) Release(e *MSHREntry) {
	clear(e.Targets)
	*e = MSHREntry{Targets: e.Targets[:0]}
	m.free = append(m.free, e)
}

// Len returns the number of outstanding entries.
func (m *MSHR) Len() int { return m.n }
