// Package cache implements the set-associative, data-carrying caches of the
// simulated GPU: per-SM L1 data caches (write-through, no write-allocate) and
// per-partition L2 slices (write-back, write-allocate), both with 128-byte
// lines, LRU replacement, and miss-status holding registers (MSHRs) that
// merge same-line misses ("inter-warp merging" in Table I).
//
// Lines carry real bytes because the paper's value-prediction unit predicts a
// dropped request's value from the nearest-address line resident in the L2
// (Section IV-D); NearestLine implements that search.
package cache

import (
	"fmt"
	"math/bits"
)

// LineSize is the cache line size in bytes (Table I: 128 B).
const LineSize = 128

// Config sizes a cache.
type Config struct {
	SizeBytes int
	Ways      int
}

// Line is one cache line.
type line struct {
	tag    uint64 // line address (addr >> 7)
	valid  bool
	dirty  bool
	approx bool // filled with value-predicted data
	lru    uint64
	data   [LineSize]byte
}

// Stats counts cache events.
type Stats struct {
	Accesses uint64
	Misses   uint64
	Fills    uint64
	Evicts   uint64
}

// Cache is a set-associative cache with data storage. It is not safe for
// concurrent use; the simulator is single-threaded per GPU instance.
type Cache struct {
	cfg     Config
	sets    []line // numSets * ways, row-major
	numSets int
	ways    int
	setMask uint64
	tick    uint64
	stats   Stats
}

// New creates a cache. SizeBytes/Ways/LineSize must yield a power-of-two set
// count.
func New(cfg Config) *Cache {
	lines := cfg.SizeBytes / LineSize
	if cfg.Ways <= 0 || lines <= 0 || lines%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache: bad geometry size=%d ways=%d", cfg.SizeBytes, cfg.Ways))
	}
	numSets := lines / cfg.Ways
	if bits.OnesCount(uint(numSets)) != 1 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", numSets))
	}
	return &Cache{
		cfg:     cfg,
		sets:    make([]line, lines),
		numSets: numSets,
		ways:    cfg.Ways,
		setMask: uint64(numSets - 1),
	}
}

// Reset empties the cache: every line invalid and zeroed, the access tick
// and the counters zero, exactly as New leaves it. The line storage is kept.
func (c *Cache) Reset() {
	clear(c.sets)
	c.tick = 0
	c.stats = Stats{}
}

// Stats returns a copy of the cache counters.
func (c *Cache) Stats() Stats { return c.stats }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

func lineTag(addr uint64) uint64 { return addr / LineSize }

func (c *Cache) setIndex(tag uint64) int { return int(tag & c.setMask) }

func (c *Cache) set(idx int) []line { return c.sets[idx*c.ways : (idx+1)*c.ways] }

func (c *Cache) find(tag uint64) *line {
	for i, s := 0, c.set(c.setIndex(tag)); i < len(s); i++ {
		if s[i].valid && s[i].tag == tag {
			return &s[i]
		}
	}
	return nil
}

// Contains reports whether the line holding addr is resident, without
// touching LRU state or statistics.
func (c *Cache) Contains(addr uint64) bool { return c.find(lineTag(addr)) != nil }

// Read looks up the line containing addr. On a hit it copies the line into
// dst (if non-nil) and returns true. Counts an access; a miss counts a miss.
func (c *Cache) Read(addr uint64, dst []byte) bool {
	c.stats.Accesses++
	c.tick++
	if l := c.find(lineTag(addr)); l != nil {
		l.lru = c.tick
		if dst != nil {
			copy(dst, l.data[:])
		}
		return true
	}
	c.stats.Misses++
	return false
}

// WriteWord writes n bytes (n <= 8) of val into the resident line containing
// addr and marks it dirty when markDirty is set (write-back caches). It
// returns false on a miss without allocating. Counts an access.
func (c *Cache) WriteWord(addr uint64, val uint64, n int, markDirty bool) bool {
	c.stats.Accesses++
	c.tick++
	l := c.find(lineTag(addr))
	if l == nil {
		c.stats.Misses++
		return false
	}
	l.lru = c.tick
	off := int(addr % LineSize)
	for i := 0; i < n; i++ {
		l.data[off+i] = byte(val >> (8 * i))
	}
	if markDirty {
		l.dirty = true
		l.approx = false
	}
	return true
}

// Evicted describes a line displaced by Fill.
type Evicted struct {
	Addr  uint64
	Dirty bool
	Data  [LineSize]byte
}

// Fill installs the line containing addr with the given data (128 bytes).
// approx marks value-predicted fills: they are always installed clean so
// that approximate data can never be written back to DRAM. It returns the
// evicted victim, if any, so the caller can issue a write-back.
func (c *Cache) Fill(addr uint64, data []byte, approx bool) (ev Evicted, evicted bool) {
	c.stats.Fills++
	c.tick++
	tag := lineTag(addr)
	s := c.set(c.setIndex(tag))
	victim := &s[0]
	for i := range s {
		l := &s[i]
		if l.valid && l.tag == tag {
			victim = l // refill of a resident line (race with a hit-under-miss)
			break
		}
		// Else the first invalid way, else the least recently used one. The
		// scan goes on past an invalid way: the line may sit behind it, and
		// filling the hole would leave a second, possibly dirty, copy.
		if victim.valid && (!l.valid || l.lru < victim.lru) {
			victim = l
		}
	}
	if victim.valid && victim.tag != tag {
		c.stats.Evicts++
		if victim.dirty {
			ev = Evicted{Addr: victim.tag * LineSize, Dirty: true, Data: victim.data}
			evicted = true
		}
	}
	victim.tag = tag
	victim.valid = true
	victim.dirty = false
	victim.approx = approx
	victim.lru = c.tick
	copy(victim.data[:], data[:LineSize])
	return ev, evicted
}

// PeekLine copies the resident line containing addr into dst without
// touching LRU state or statistics. It reports whether the line was present.
func (c *Cache) PeekLine(addr uint64, dst []byte) bool {
	l := c.find(lineTag(addr))
	if l == nil {
		return false
	}
	copy(dst, l.data[:])
	return true
}

// MergeWord merges a word write of n bytes (n <= 8) into a resident line
// without touching LRU or statistics; MergeLine merges a store transaction's
// words at once.
func (c *Cache) MergeWord(addr uint64, val uint64, n int, markDirty bool) bool {
	l := c.find(lineTag(addr))
	if l == nil {
		return false
	}
	off := int(addr % LineSize)
	for i := 0; i < n; i++ {
		l.data[off+i] = byte(val >> (8 * i))
	}
	if markDirty {
		l.dirty = true
		l.approx = false
	}
	return true
}

// MergeLine merges the words of data whose bit is set in mask (bit w is the
// 4-byte word at offset 4*w) into the resident line containing addr, with a
// single lookup and without touching LRU or statistics: one MergeWord per
// masked word in a single call. It reports whether the line was resident.
func (c *Cache) MergeLine(addr uint64, mask uint32, data *[LineSize]byte, markDirty bool) bool {
	l := c.find(lineTag(addr))
	if l == nil {
		return false
	}
	mergeWords(&l.data, mask, data)
	if markDirty && mask != 0 {
		l.dirty = true
		l.approx = false
	}
	return true
}

// mergeWords copies the words of src whose bit is set in mask into dst.
func mergeWords(dst *[LineSize]byte, mask uint32, src *[LineSize]byte) {
	for ; mask != 0; mask &= mask - 1 {
		off := 4 * bits.TrailingZeros32(mask)
		copy(dst[off:off+4], src[off:off+4])
	}
}

// Invalidate drops the line containing addr, returning its dirty payload if
// it had one.
func (c *Cache) Invalidate(addr uint64) (ev Evicted, dirty bool) {
	l := c.find(lineTag(addr))
	if l == nil {
		return Evicted{}, false
	}
	l.valid = false
	if l.dirty {
		return Evicted{Addr: l.tag * LineSize, Dirty: true, Data: l.data}, true
	}
	return Evicted{}, false
}

// DirtyLines invokes fn for every dirty line; used to flush the L2 into the
// DRAM image at the end of a run so the functional output is complete.
func (c *Cache) DirtyLines(fn func(addr uint64, data []byte)) {
	for i := range c.sets {
		l := &c.sets[i]
		if l.valid && l.dirty {
			fn(l.tag*LineSize, l.data[:])
			l.dirty = false
		}
	}
}

// NearestLine searches the home set of addr and the sets within setRadius on
// either side (wrapping) for the valid line whose address is nearest addr,
// excluding the line containing addr itself. It returns a copy of that
// line's bytes. This is the paper's VP-unit search: "search in the nearby
// cache sets of the L2 and use the values from cache lines with nearest
// addresses".
func (c *Cache) NearestLine(addr uint64, setRadius int) (nearAddr uint64, data [LineSize]byte, ok bool) {
	target := lineTag(addr)
	home := c.setIndex(target)
	bestDist := uint64(1) << 63
	for d := -setRadius; d <= setRadius; d++ {
		idx := (home + d) & int(c.setMask)
		s := c.set(idx)
		for i := range s {
			l := &s[i]
			if !l.valid || l.tag == target {
				continue
			}
			dist := target - l.tag
			if l.tag > target {
				dist = l.tag - target
			}
			if dist < bestDist {
				bestDist = dist
				nearAddr = l.tag * LineSize
				data = l.data
				ok = true
			}
		}
	}
	return nearAddr, data, ok
}
