package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// doc returns a document of size bytes: a JSON string, so a spill reload
// accepts it.
func doc(i int, size int) (string, []byte) {
	id := fmt.Sprintf("doc-%03d", i)
	d := bytes.Repeat([]byte{byte('a' + i%26)}, size)
	d[0], d[size-1] = '"', '"'
	return id, d
}

// TestCacheLRUEvictionBound: the resident tier never exceeds its byte bound
// (beyond the single-newest-entry exemption), evicts in LRU order, and Get
// refreshes recency.
func TestCacheLRUEvictionBound(t *testing.T) {
	c := NewCache(1000, "", nil)
	for i := 0; i < 10; i++ {
		id, d := doc(i, 300)
		c.Put(id, d)
		if st := c.Stats(); st.Bytes > 1000 {
			t.Fatalf("after put %d: resident bytes %d > bound 1000", i, st.Bytes)
		}
	}
	st := c.Stats()
	if st.Entries != 3 || st.Bytes != 900 {
		t.Fatalf("stats = %+v, want 3 entries / 900 bytes", st)
	}
	if st.Evictions != 7 {
		t.Fatalf("evictions = %d, want 7", st.Evictions)
	}
	// Without a spill tier, evicted documents are gone; resident ones serve.
	if _, ok := c.Get("doc-000"); ok {
		t.Fatal("evicted doc-000 still served")
	}
	if _, ok := c.Get("doc-009"); !ok {
		t.Fatal("resident doc-009 missing")
	}

	// Recency: touch the LRU resident entry, insert one more, and the
	// untouched middle entry must be the casualty.
	if _, ok := c.Get("doc-007"); !ok {
		t.Fatal("doc-007 should be resident")
	}
	id, d := doc(10, 300)
	c.Put(id, d)
	if _, ok := c.Get("doc-007"); !ok {
		t.Fatal("recently-used doc-007 was evicted")
	}
	if _, ok := c.Get("doc-008"); ok {
		t.Fatal("LRU doc-008 survived eviction")
	}
}

// TestCacheOversizeDocument: a document larger than the whole bound is still
// admitted (it must serve the request that produced it) and simply evicts
// everything else.
func TestCacheOversizeDocument(t *testing.T) {
	c := NewCache(100, "", nil)
	c.Put("small", []byte("x"))
	c.Put("huge", bytes.Repeat([]byte("y"), 500))
	if got, ok := c.Get("huge"); !ok || len(got) != 500 {
		t.Fatalf("oversize document not served: ok=%v len=%d", ok, len(got))
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want only the oversize document", st.Entries)
	}
}

// TestCacheSpillRoundTrip: eviction spills to disk, a later Get reloads the
// exact bytes, Flush persists the resident tier, and a fresh Cache over the
// same directory (a daemon restart) serves everything cold.
func TestCacheSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(700, dir, nil)
	docs := map[string][]byte{}
	for i := 0; i < 6; i++ {
		id, d := doc(i, 300)
		docs[id] = d
		c.Put(id, d)
	}
	// 6×300 into a 700-byte tier: four spilled to disk.
	if st := c.Stats(); st.SpillWrites != 4 {
		t.Fatalf("spill writes = %d, want 4 (stats %+v)", st.SpillWrites, st)
	}
	got, ok := c.Get("doc-000")
	if !ok || !bytes.Equal(got, docs["doc-000"]) {
		t.Fatalf("spilled doc-000 did not round-trip (ok=%v)", ok)
	}
	if st := c.Stats(); st.SpillReads != 1 {
		t.Fatalf("spill reads = %d, want 1", st.SpillReads)
	}

	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 6 {
		t.Fatalf("after flush: %d spill files, want all 6", len(files))
	}

	// Restart: a fresh cache over the same directory serves every document.
	c2 := NewCache(700, dir, nil)
	for id, want := range docs {
		got, ok := c2.Get(id)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("restart: %s not served from spill (ok=%v)", id, ok)
		}
	}

	// The write-rename protocol must not leave temp files behind.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 0 {
		t.Fatalf("leftover temp files: %v", tmps)
	}
}

// TestCacheSpillIsAtomic: a pre-existing corrupt temp file never shadows the
// real document.
func TestCacheSpillTempIgnored(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(10, dir, nil)
	if err := os.WriteFile(filepath.Join(dir, "key.json.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("key"); ok {
		t.Fatal("temp file served as a document")
	}
}

// TestCacheRejectsDamagedSpill: a spill file that is not one complete JSON
// document (here a truncated one) is never served. The reload counts as a
// miss and removes the file, so the job runs again and a later Put spills a
// whole copy that does serve.
func TestCacheRejectsDamagedSpill(t *testing.T) {
	dir := t.TempDir()
	whole := []byte(`{"run":{"app":"SCP","core_cycles":512}}`)
	path := filepath.Join(dir, "key.json")
	if err := os.WriteFile(path, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCache(1, dir, nil)
	if got, ok := c.Get("key"); ok {
		t.Fatalf("truncated spill file served: %q", got)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 0 || st.SpillReads != 0 {
		t.Fatalf("stats after a damaged reload = %+v, want one miss", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("damaged spill file kept (stat err %v)", err)
	}
	c.Put("key", whole)
	c.Put("other", []byte(`{}`)) // evicts and spills key
	got, ok := NewCache(1, dir, nil).Get("key")
	if !ok || !bytes.Equal(got, whole) {
		t.Fatalf("respilled document not served (ok=%v): %q", ok, got)
	}
}

// FuzzCacheSpillReload writes arbitrary bytes as a spill file: Get serves
// them, byte for byte, as a hit only when they are one complete JSON
// document; anything else is a miss that removes the file. No content
// panics the reload.
func FuzzCacheSpillReload(f *testing.F) {
	f.Fuzz(func(t *testing.T, content []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "key.json")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		c := NewCache(1<<20, dir, nil)
		got, ok := c.Get("key")
		st := c.Stats()
		_, statErr := os.Stat(path)
		if json.Valid(content) {
			if !ok || !bytes.Equal(got, content) || st.Hits != 1 || st.Misses != 0 || st.SpillReads != 1 {
				t.Fatalf("valid spill %q: served ok=%v %q, stats %+v", content, ok, got, st)
			}
			if statErr != nil {
				t.Fatalf("valid spill file removed: %v", statErr)
			}
			return
		}
		if ok || got != nil || st.Hits != 0 || st.Misses != 1 || st.SpillReads != 0 {
			t.Fatalf("invalid spill %q: served ok=%v %q, stats %+v", content, ok, got, st)
		}
		if !os.IsNotExist(statErr) {
			t.Fatalf("invalid spill file kept (stat err %v)", statErr)
		}
	})
}
