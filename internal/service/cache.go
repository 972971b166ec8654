package service

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"lazydram/internal/obs"
)

// Cache is the content-addressed result store: completed run documents keyed
// by the job's content address (hex SHA-256 of the canonical run key). The
// resident tier is a byte-bounded LRU; when a spill directory is configured,
// evicted documents move to disk (<id>.json) and reload transparently on the
// next Get, so the cache's effective capacity is the disk, with the LRU as
// its hot set. Because same-key runs are bit-identical (CI-gated
// determinism), a cached document is exactly the bytes a fresh run would
// produce — serving it verbatim is correct, not approximate.
//
// Safe for concurrent use. Disk I/O happens under the lock: documents are
// small (tens of KB) and the simplicity beats a second locking protocol.
type Cache struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // id → element holding *centry

	dir string // spill directory ("" disables the disk tier)

	hits, misses, evictions uint64
	spillWrites, spillReads uint64

	met *obs.DaemonMetrics
}

type centry struct {
	id  string
	doc []byte
	// spilled records that <id>.json already holds these bytes, so eviction
	// and Flush can skip the rewrite.
	spilled bool
}

// NewCache creates a cache bounded to maxBytes of resident documents
// (minimum one document is always admitted). dir, when non-empty, enables
// the disk spill tier and is created on first use. met may be nil.
func NewCache(maxBytes int64, dir string, met *obs.DaemonMetrics) *Cache {
	return &Cache{
		max:   maxBytes,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		dir:   dir,
		met:   met,
	}
}

func (c *Cache) path(id string) string {
	return filepath.Join(c.dir, id+".json")
}

// Get returns the cached document for id, consulting the resident tier then
// the spill directory. A disk hit re-admits the document to the resident
// tier (it is now hot again). A spill file that is not one complete JSON
// document (truncated or corrupted on disk) is removed and counts as a
// miss, so the job runs and spills again.
func (c *Cache) Get(id string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[id]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		if c.met != nil {
			c.met.CacheHits.Add(1)
		}
		return el.Value.(*centry).doc, true
	}
	if c.dir != "" {
		if doc, err := os.ReadFile(c.path(id)); err == nil && json.Valid(doc) {
			c.spillReads++
			c.hits++
			if c.met != nil {
				c.met.SpillReads.Add(1)
				c.met.CacheHits.Add(1)
			}
			c.admitLocked(id, doc, true)
			return doc, true
		} else if err == nil {
			// Damaged on disk; a failed remove only repeats this miss.
			os.Remove(c.path(id))
		}
	}
	c.misses++
	if c.met != nil {
		c.met.CacheMisses.Add(1)
	}
	return nil, false
}

// Put stores the document for id. Re-putting an existing id refreshes its
// recency but keeps the original bytes (same key means same bytes by the
// determinism contract, so there is nothing to update).
func (c *Cache) Put(id string, doc []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[id]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.admitLocked(id, doc, false)
}

// admitLocked inserts the entry at the front and evicts from the back until
// the resident tier fits the bound again. The newest entry itself is never
// evicted: a document larger than the whole bound still serves the request
// that produced it and simply evicts everything else.
func (c *Cache) admitLocked(id string, doc []byte, spilled bool) {
	el := c.ll.PushFront(&centry{id: id, doc: doc, spilled: spilled})
	c.items[id] = el
	c.bytes += int64(len(doc))
	for c.bytes > c.max && c.ll.Len() > 1 {
		c.evictLocked()
	}
	c.publishLocked()
}

// evictLocked spills and drops the least recently used entry.
func (c *Cache) evictLocked() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*centry)
	c.spillLocked(e)
	c.ll.Remove(el)
	delete(c.items, e.id)
	c.bytes -= int64(len(e.doc))
	c.evictions++
	if c.met != nil {
		c.met.CacheEvictions.Add(1)
	}
}

// spillLocked writes the entry to the disk tier if configured and not
// already there. Spill failures are swallowed: losing a spill degrades the
// cache to a miss later, never corrupts a result (Flush, which callers rely
// on for durability, re-checks and reports).
func (c *Cache) spillLocked(e *centry) {
	if c.dir == "" || e.spilled {
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	// Write-rename so a torn write never leaves a half document a later Get
	// would serve.
	tmp := c.path(e.id) + ".tmp"
	if err := os.WriteFile(tmp, e.doc, 0o644); err != nil {
		return
	}
	if err := os.Rename(tmp, c.path(e.id)); err != nil {
		os.Remove(tmp)
		return
	}
	e.spilled = true
	c.spillWrites++
	if c.met != nil {
		c.met.SpillWrites.Add(1)
	}
}

// Flush writes every resident document to the spill directory (a no-op
// without one). Called on graceful shutdown so a restarted daemon finds the
// whole working set on disk.
func (c *Cache) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*centry)
		before := c.spillWrites
		c.spillLocked(e)
		if !e.spilled && c.spillWrites == before {
			return fmt.Errorf("cache: spill of %s failed", e.id)
		}
	}
	return nil
}

// publishLocked refreshes the resident-tier gauges.
func (c *Cache) publishLocked() {
	if c.met == nil {
		return
	}
	c.met.CacheEntries.Set(float64(c.ll.Len()))
	c.met.CacheBytes.Set(float64(c.bytes))
}

// CacheStats is the /v1/cache/stats document.
type CacheStats struct {
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`

	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`

	SpillDir    string `json:"spill_dir,omitempty"`
	SpillWrites uint64 `json:"spill_writes"`
	SpillReads  uint64 `json:"spill_reads"`
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries: c.ll.Len(), Bytes: c.bytes, MaxBytes: c.max,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		SpillDir: c.dir, SpillWrites: c.spillWrites, SpillReads: c.spillReads,
	}
}
