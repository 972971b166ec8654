package cache_test

import (
	"math/rand"
	"testing"

	"lazydram/internal/cache"
	"lazydram/internal/obs"
)

func tinyCache(t *testing.T) *cache.Cache {
	t.Helper()
	// 4 sets x 2 ways x 128 B = 1 KB.
	return cache.New(cache.Config{SizeBytes: 1024, Ways: 2})
}

func line(data byte) []byte {
	b := make([]byte, cache.LineSize)
	for i := range b {
		b[i] = data
	}
	return b
}

func TestReadMissThenHitAfterFill(t *testing.T) {
	c := tinyCache(t)
	if c.Read(0, nil) {
		t.Fatal("cold cache must miss")
	}
	c.Fill(0, line(0xAB), false)
	buf := make([]byte, cache.LineSize)
	if !c.Read(0, buf) {
		t.Fatal("filled line must hit")
	}
	if buf[0] != 0xAB || buf[127] != 0xAB {
		t.Fatal("hit returned wrong data")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Misses != 1 || st.Fills != 1 {
		t.Fatalf("stats = %+v, want 2 accesses / 1 miss / 1 fill", st)
	}
}

func TestSameSetConflictEvictsLRU(t *testing.T) {
	c := tinyCache(t)
	// Lines 0, 4, 8 share set 0 (4 sets). Fill 0, 4 then touch 0 so 4 is LRU.
	c.Fill(0, line(1), false)
	c.Fill(4*128, line(2), false)
	c.Read(0, nil)
	c.Fill(8*128, line(3), false)
	if !c.Contains(0) {
		t.Fatal("recently used line was evicted")
	}
	if c.Contains(4 * 128) {
		t.Fatal("LRU line was not evicted")
	}
}

// TestRefillBehindHoleKeepsOneCopy refills a resident dirty line whose way
// follows an invalidated one: the refill must land in the line's own way,
// not in the hole, or the set holds two copies and the stale dirty one
// outlives an invalidation.
func TestRefillBehindHoleKeepsOneCopy(t *testing.T) {
	c := tinyCache(t)
	// Lines 0 and 4 share set 0: way 0 holds 0, way 1 holds 4 (dirty).
	c.Fill(0, line(1), false)
	c.Fill(4*128, line(2), false)
	c.WriteWord(4*128, 7, 4, true)
	c.Invalidate(0)
	c.Fill(4*128, line(3), false)
	if _, dirty := c.Invalidate(4 * 128); dirty {
		t.Fatal("the refill left the dirty copy behind and filled the hole")
	}
	if c.Contains(4 * 128) {
		t.Fatal("a second copy of the line survives its invalidation")
	}
}

func TestFillReturnsDirtyVictim(t *testing.T) {
	c := tinyCache(t)
	c.Fill(0, line(1), false)
	if !c.WriteWord(0, 0xDEAD, 4, true) {
		t.Fatal("write to resident line must hit")
	}
	c.Fill(4*128, line(2), false)
	ev, evicted := c.Fill(8*128, line(3), false)
	if !evicted || !ev.Dirty {
		t.Fatal("dirty victim must be reported")
	}
	if ev.Addr != 0 {
		t.Fatalf("victim addr = %d, want 0", ev.Addr)
	}
	if ev.Data[0] != 0xAD || ev.Data[1] != 0xDE {
		t.Fatal("victim data does not include the write")
	}
}

func TestCleanEvictionNotReported(t *testing.T) {
	c := tinyCache(t)
	c.Fill(0, line(1), false)
	c.Fill(4*128, line(2), false)
	if _, evicted := c.Fill(8*128, line(3), false); evicted {
		t.Fatal("clean victims must not demand a write-back")
	}
}

func TestApproxFillsAreClean(t *testing.T) {
	c := tinyCache(t)
	c.Fill(0, line(9), true) // value-predicted fill
	c.Fill(4*128, line(2), false)
	if _, evicted := c.Fill(8*128, line(3), false); evicted {
		t.Fatal("approx line must never be written back")
	}
}

func TestWriteWordMissDoesNotAllocate(t *testing.T) {
	c := tinyCache(t)
	if c.WriteWord(0, 1, 4, true) {
		t.Fatal("write miss must report miss")
	}
	if c.Contains(0) {
		t.Fatal("write miss must not allocate")
	}
}

func TestMergeWordDoesNotTouchStats(t *testing.T) {
	c := tinyCache(t)
	c.Fill(0, line(0), false)
	before := c.Stats()
	if !c.MergeWord(4, 0x01020304, 4, true) {
		t.Fatal("merge into resident line failed")
	}
	if c.Stats().Accesses != before.Accesses {
		t.Fatal("MergeWord must not count an access")
	}
	var buf [cache.LineSize]byte
	c.PeekLine(0, buf[:])
	if buf[4] != 0x04 || buf[7] != 0x01 {
		t.Fatal("merged bytes wrong")
	}
}

func TestInvalidateReturnsDirtyData(t *testing.T) {
	c := tinyCache(t)
	c.Fill(0, line(5), false)
	c.WriteWord(0, 0xFF, 1, true)
	ev, dirty := c.Invalidate(0)
	if !dirty || ev.Data[0] != 0xFF {
		t.Fatal("invalidate must surface dirty data")
	}
	if c.Contains(0) {
		t.Fatal("line still resident after invalidate")
	}
}

func TestDirtyLinesVisitsAndCleans(t *testing.T) {
	c := tinyCache(t)
	c.Fill(0, line(1), false)
	c.WriteWord(0, 7, 4, true)
	c.Fill(128, line(2), false)
	visited := 0
	c.DirtyLines(func(addr uint64, data []byte) {
		visited++
		if addr != 0 {
			t.Fatalf("unexpected dirty line %d", addr)
		}
	})
	if visited != 1 {
		t.Fatalf("visited %d dirty lines, want 1", visited)
	}
	c.DirtyLines(func(uint64, []byte) { t.Fatal("DirtyLines must clean as it goes") })
}

func TestNearestLinePrefersClosestAddress(t *testing.T) {
	c := cache.New(cache.Config{SizeBytes: 8 * 1024, Ways: 2}) // 32 sets
	c.Fill(0, line(1), false)
	c.Fill(10*128, line(2), false)
	c.Fill(100*128, line(3), false)
	// Target line 9: line 10 is nearest.
	addr, data, ok := c.NearestLine(9*128, 4)
	if !ok {
		t.Fatal("expected a prediction source")
	}
	if addr != 10*128 {
		t.Fatalf("nearest = line %d, want 10", addr/128)
	}
	if data[0] != 2 {
		t.Fatal("wrong line data")
	}
}

func TestNearestLineExcludesTargetItself(t *testing.T) {
	c := cache.New(cache.Config{SizeBytes: 8 * 1024, Ways: 2})
	c.Fill(9*128, line(7), false)
	c.Fill(11*128, line(8), false)
	addr, _, ok := c.NearestLine(9*128, 4)
	if !ok || addr == 9*128 {
		t.Fatalf("NearestLine returned the target line itself (addr=%d ok=%v)", addr, ok)
	}
}

func TestNearestLineRespectsRadius(t *testing.T) {
	c := cache.New(cache.Config{SizeBytes: 8 * 1024, Ways: 2}) // 32 sets
	// A line 16 sets away is outside radius 2.
	c.Fill(16*128, line(1), false)
	if _, _, ok := c.NearestLine(0, 2); ok {
		t.Fatal("line outside the set radius must not be found")
	}
	if _, _, ok := c.NearestLine(0, 16); !ok {
		t.Fatal("line inside a wide radius must be found")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two set count must panic")
		}
	}()
	cache.New(cache.Config{SizeBytes: 3 * 128, Ways: 1})
}

// TestModelEquivalence drives the cache with random fills/reads/writes and
// checks hit/miss and data behaviour against a simple map-based model with
// per-set LRU.
func TestModelEquivalence(t *testing.T) {
	const (
		sets  = 8
		ways  = 2
		lines = 32 // address space of 32 lines
	)
	c := cache.New(cache.Config{SizeBytes: sets * ways * cache.LineSize, Ways: ways})

	type mline struct {
		tag  uint64
		data byte
		lru  int
	}
	model := make([][]mline, sets) // per set, up to `ways` lines
	tick := 0
	rng := rand.New(rand.NewSource(42))

	find := func(tag uint64) *mline {
		s := model[tag%sets]
		for i := range s {
			if s[i].tag == tag {
				return &s[i]
			}
		}
		return nil
	}
	fill := func(tag uint64, data byte) {
		tick++
		set := tag % sets
		s := model[set]
		if l := find(tag); l != nil {
			l.data = data
			l.lru = tick
			return
		}
		if len(s) < ways {
			model[set] = append(s, mline{tag: tag, data: data, lru: tick})
			return
		}
		victim := 0
		for i := range s {
			if s[i].lru < s[victim].lru {
				victim = i
			}
		}
		s[victim] = mline{tag: tag, data: data, lru: tick}
	}

	for i := 0; i < 5000; i++ {
		tag := uint64(rng.Intn(lines))
		addr := tag * cache.LineSize
		switch rng.Intn(3) {
		case 0: // fill
			d := byte(rng.Intn(256))
			c.Fill(addr, line(d), false)
			fill(tag, d)
		case 1: // read
			tick++
			var buf [cache.LineSize]byte
			got := c.Read(addr, buf[:])
			m := find(tag)
			if got != (m != nil) {
				t.Fatalf("op %d: read hit=%v, model=%v (tag %d)", i, got, m != nil, tag)
			}
			if got {
				if buf[0] != m.data {
					t.Fatalf("op %d: data %d, model %d", i, buf[0], m.data)
				}
				m.lru = tick
			}
		case 2: // write word
			tick++
			v := byte(rng.Intn(256))
			got := c.WriteWord(addr, uint64(v), 1, false)
			m := find(tag)
			if got != (m != nil) {
				t.Fatalf("op %d: write hit=%v, model=%v", i, got, m != nil)
			}
			if got {
				m.data = v
				m.lru = tick
			}
		}
	}
}

func TestMSHRMergeAndCapacity(t *testing.T) {
	m := cache.NewMSHR(2, 3)
	e := m.Allocate(0)
	if m.Lookup(0) != e {
		t.Fatal("lookup after allocate failed")
	}
	e.Targets = append(e.Targets, 1, 2, 3)
	if m.CanMerge(e) {
		t.Fatal("entry at target capacity must refuse merges")
	}
	m.Allocate(128)
	if !m.Full() {
		t.Fatal("MSHR with max entries must be full")
	}
	m.Remove(0)
	if m.Full() || m.Lookup(0) != nil {
		t.Fatal("remove did not free the entry")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestMSHRDoubleAllocatePanics(t *testing.T) {
	m := cache.NewMSHR(4, 4)
	m.Allocate(0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate allocation must panic")
		}
	}()
	m.Allocate(0)
}

// TestMergeLineMatchesMergeWords checks that one MergeLine leaves the same
// bytes, flags, LRU state and counters as one MergeWord per masked word, over
// random masks, fill kinds and dirty marking, and that both miss alike.
func TestMergeLineMatchesMergeWords(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		a, b := tinyCache(t), tinyCache(t)
		addr := uint64(rng.Intn(16)) * cache.LineSize
		fill := line(byte(rng.Intn(256)))
		approx := rng.Intn(2) == 0
		a.Fill(addr, fill, approx)
		b.Fill(addr, fill, approx)
		var data [cache.LineSize]byte
		rng.Read(data[:])
		mask, dirty := rng.Uint32(), rng.Intn(2) == 0
		if i%50 == 0 {
			mask = 0
		}
		target := addr
		if rng.Intn(8) == 0 {
			target += 16 * cache.LineSize // not resident
		}
		hitA := a.MergeLine(target, mask, &data, dirty)
		hitB := true
		for w := 0; w < cache.LineSize/4; w++ {
			if mask&(1<<w) != 0 {
				val := uint64(data[4*w]) | uint64(data[4*w+1])<<8 | uint64(data[4*w+2])<<16 | uint64(data[4*w+3])<<24
				hitB = b.MergeWord(target+uint64(4*w), val, 4, dirty)
			}
		}
		if mask != 0 && hitA != hitB {
			t.Fatalf("case %d: MergeLine hit %v, MergeWord hit %v", i, hitA, hitB)
		}
		bufA, bufB := make([]byte, cache.LineSize), make([]byte, cache.LineSize)
		a.PeekLine(addr, bufA)
		b.PeekLine(addr, bufB)
		if string(bufA) != string(bufB) {
			t.Fatalf("case %d (mask %#x): MergeLine bytes %x, MergeWord bytes %x", i, mask, bufA, bufB)
		}
		ha, hb := obs.NewHasher(), obs.NewHasher()
		a.DigestInto(ha)
		b.DigestInto(hb)
		if ha.Sum() != hb.Sum() || a.Stats() != b.Stats() {
			t.Fatalf("case %d (mask %#x, dirty %v): flags, LRU or counters differ", i, mask, dirty)
		}
	}
}

// TestResetMatchesNew checks that a used cache, once reset, is
// indistinguishable from a new one.
func TestResetMatchesNew(t *testing.T) {
	c, fresh := tinyCache(t), tinyCache(t)
	for i := uint64(0); i < 12; i++ {
		c.Fill(i*cache.LineSize, line(byte(i)), i%3 == 0)
		c.Read(i*cache.LineSize, nil)
		c.WriteWord(i*cache.LineSize, i, 4, true)
	}
	c.Reset()
	h1, h2 := obs.NewHasher(), obs.NewHasher()
	c.DigestInto(h1)
	fresh.DigestInto(h2)
	if h1.Sum() != h2.Sum() || c.Stats() != fresh.Stats() {
		t.Fatal("reset cache differs from a new one")
	}
	buf := make([]byte, cache.LineSize)
	for i := uint64(0); i < 12; i++ {
		if c.PeekLine(i*cache.LineSize, buf) {
			t.Fatalf("line %d still resident after Reset", i)
		}
	}
}
