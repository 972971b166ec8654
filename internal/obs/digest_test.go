package obs

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestHasherDeterministicAndOrderSensitive(t *testing.T) {
	h1 := NewHasher()
	h1.U64("a", 1)
	h1.I64("b", -2)
	h1.Int("c", 3)
	h1.Bool("d", true)
	h1.F64("e", 4.5)
	h1.Bytes("f", []byte("abc"))

	h2 := NewHasher()
	h2.U64("a", 1)
	h2.I64("b", -2)
	h2.Int("c", 3)
	h2.Bool("d", true)
	h2.F64("e", 4.5)
	h2.Bytes("f", []byte("abc"))

	if h1.Sum() != h2.Sum() {
		t.Fatalf("same inputs, different digests: %#x vs %#x", h1.Sum(), h2.Sum())
	}

	h3 := NewHasher()
	h3.I64("b", -2) // swapped order
	h3.U64("a", 1)
	if h3.Sum() == func() uint64 { h := NewHasher(); h.U64("a", 1); h.I64("b", -2); return h.Sum() }() {
		t.Fatal("digest is not order-sensitive")
	}
}

// foldAll folds one of each kind through scopes, a sub-digest and a tee, the
// way a component's DigestInto and the digest node walk do.
func foldAll(h *Hasher) {
	h.U64("u", 1<<63)
	h.I64("i", -2)
	h.Int("n", 3)
	h.Bool("ok", true)
	h.F64("f", 4.5)
	h.Bytes("data", []byte{0xde, 0xad, 0xbe, 0xef, 1})
	for i := range 2 {
		h.Enter("fifo", i)
		h.U64("arrival", uint64(10+i))
		h.Leave()
	}
	sub := NewHasher()
	sub.Int("x", 7)
	h.U64("sub", sub.Sum())
	h.Enter("tee")
	tee := h.Tee()
	tee.Bool("y", false)
	tee.Bytes("z", nil)
	h.Leave()
}

// TestDumpHasherMatchesPlain is the one-list property at the hasher level:
// a dumping hasher reaches the same Sum as a plain one, names are never
// hashed, and the dump has exactly one "name=value" line per fold.
func TestDumpHasherMatchesPlain(t *testing.T) {
	plain, dump := NewHasher(), NewDumpHasher()
	foldAll(plain)
	foldAll(dump)
	if plain.Sum() != dump.Sum() {
		t.Fatalf("dumping Sum %#x != plain Sum %#x", dump.Sum(), plain.Sum())
	}
	if plain.Dump() != "" {
		t.Errorf("plain hasher dumped %q", plain.Dump())
	}
	named, renamed := NewHasher(), NewHasher()
	named.U64("u", 1<<63)
	renamed.U64("other", 1<<63)
	if named.Sum() != renamed.Sum() {
		t.Error("the field name changed the digest")
	}
	want := []string{
		"u=9223372036854775808",
		"i=-2",
		"n=3",
		"ok=true",
		"f=4.5",
		"data=deadbeef01",
		"fifo[0].arrival=10",
		"fifo[1].arrival=11",
		"sub=" + strconv.FormatUint(func() uint64 { h := NewHasher(); h.Int("x", 7); return h.Sum() }(), 10),
		"tee.y=false",
		"tee.z=",
	}
	if got := strings.Split(strings.TrimSuffix(dump.Dump(), "\n"), "\n"); !reflect.DeepEqual(got, want) {
		t.Errorf("dump lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestTeeDigestsStretchOnce: a tee gets the digest of its own folds while
// the enclosing hasher still sees every one of them.
func TestTeeDigestsStretchOnce(t *testing.T) {
	outer := NewHasher()
	outer.Int("before", 1)
	tee := outer.Tee()
	tee.U64("a", 2)
	tee.Bytes("b", []byte("xyz"))
	outer.Int("after", 3)

	flat := NewHasher()
	flat.Int("before", 1)
	flat.U64("a", 2)
	flat.Bytes("b", []byte("xyz"))
	flat.Int("after", 3)
	if outer.Sum() != flat.Sum() {
		t.Errorf("outer digest %#x, want the flat fold %#x", outer.Sum(), flat.Sum())
	}
	alone := NewHasher()
	alone.U64("a", 2)
	alone.Bytes("b", []byte("xyz"))
	if tee.Sum() != alone.Sum() {
		t.Errorf("tee digest %#x, want its stretch alone %#x", tee.Sum(), alone.Sum())
	}
}

func TestFoldBytesLengthDisambiguation(t *testing.T) {
	// A line of zeros must not alias a shorter line of zeros: the length is
	// folded first.
	a := FoldBytes(FoldSeed(), make([]byte, 8))
	b := FoldBytes(FoldSeed(), make([]byte, 16))
	if a == b {
		t.Fatal("zero slices of different lengths alias")
	}
	// Hasher.Bytes and FoldBytes agree.
	h := NewHasher()
	h.Bytes("b", []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if h.Sum() != FoldBytes(FoldSeed(), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Fatal("Hasher.Bytes != FoldBytes")
	}
}

func TestDigestLogChainAndBound(t *testing.T) {
	l := NewDigestLog(64, 4)
	for i := uint64(1); i <= 6; i++ {
		l.Record(DigestRecord{Cycle: i * 64, Machine: i})
	}
	if got := l.Summary().Intervals; got != 6 {
		t.Fatalf("Intervals = %d, want 6", got)
	}
	if got := l.Summary().Dropped; got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	recs := l.Records()
	if len(recs) != 4 {
		t.Fatalf("retained %d records, want 4", len(recs))
	}
	// Oldest-first after the ring wrapped: cycles 192..384.
	for i, rec := range recs {
		if want := uint64(i+3) * 64; rec.Cycle != want {
			t.Fatalf("record %d cycle = %d, want %d", i, rec.Cycle, want)
		}
	}
	// The chain must cover all 6 samples, not just the retained 4.
	want := FoldSeed()
	for i := uint64(1); i <= 6; i++ {
		want = FoldU64(want, i)
	}
	if l.Chain() != want {
		t.Fatalf("Chain = %#x, want %#x", l.Chain(), want)
	}
	if recs[len(recs)-1].Chain != want {
		t.Fatal("last record's chain != log chain")
	}
}

func TestDigestLogSummaryAndJSONLRoundTrip(t *testing.T) {
	l := NewDigestLog(128, 0)
	l.Record(DigestRecord{Cycle: 128, Machine: 0xdeadbeefcafef00d, Cores: 7,
		Parts: []PartDigest{{Part: 0, DRAM: 1, MC: 2, L2: 3, Heaps: 4, Traffic: 5, Stats: 6}}})
	l.Record(DigestRecord{Cycle: 256, Machine: 42})
	l.Finalize(0x0123456789abcdef)

	s := l.Summary()
	if s.Every != 128 || s.Intervals != 2 {
		t.Fatalf("summary every/intervals = %d/%d", s.Every, s.Intervals)
	}
	if s.Final != "0x0123456789abcdef" {
		t.Fatalf("Final = %q", s.Final)
	}
	if got := uint64(s.FinalHi)<<32 | uint64(s.FinalLo); got != 0x0123456789abcdef {
		t.Fatalf("hi/lo halves reassemble to %#x", got)
	}
	if got := uint64(s.ChainHi)<<32 | uint64(s.ChainLo); got != l.Chain() {
		t.Fatalf("chain halves reassemble to %#x, want %#x", got, l.Chain())
	}

	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 2 {
		t.Fatalf("JSONL lines = %d, want 2", n)
	}
	recs, err := ReadDigestJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("round trip read %d records", len(recs))
	}
	if recs[0].Machine != 0xdeadbeefcafef00d || recs[0].Parts[0].Traffic != 5 {
		t.Fatalf("round trip mangled record: %+v", recs[0])
	}
	if recs[1].Chain != l.Chain() {
		t.Fatal("round trip lost chain value")
	}
}

func TestNilDigestLogIsSafe(t *testing.T) {
	var l *DigestLog
	l.Record(DigestRecord{})
	l.Finalize(1)
	if l.Summary() != nil || l.Records() != nil || l.Every() != 0 ||
		l.Chain() != 0 || l.Final() != 0 {
		t.Fatal("nil DigestLog accessors not zero")
	}
	if err := l.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsDigestEnables(t *testing.T) {
	if (Options{}).Enabled() {
		t.Fatal("zero Options enabled")
	}
	if !(Options{DigestEvery: 4096}).Enabled() {
		t.Fatal("DigestEvery does not enable the collector")
	}
	c := NewCollector(Options{DigestEvery: 4096}, 1)
	if c == nil || c.Digest == nil {
		t.Fatal("collector missing digest log")
	}
	if c.Telemetry().Digest == nil {
		t.Fatal("telemetry missing digest summary")
	}
}

// FuzzReadDigestJSONL: no input panics the reader, and a stream it accepts
// re-encodes through DigestLog.WriteJSONL and reads back equal.
func FuzzReadDigestJSONL(f *testing.F) {
	f.Add([]byte(`{"cycle":1024,"machine":1,"chain":2,"cores":3,"icnt":4,"parts":[{"part":0,"dram":5,"mc":6,"l2":7,"heaps":8,"traffic":9,"stats":10}]}` + "\n"))
	f.Add([]byte(""))
	f.Add([]byte(`{"cycle":1}` + "\n" + `{"cycle":`))
	f.Fuzz(func(t *testing.T, stream []byte) {
		recs, err := ReadDigestJSONL(bytes.NewReader(stream))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		l := NewDigestLog(1, max(len(recs), 1))
		for _, rec := range recs {
			l.recs.add(rec)
		}
		if err := l.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := ReadDigestJSONL(&buf)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("stream changed on re-encoding:\n%+v\n%+v", recs, again)
		}
	})
}
