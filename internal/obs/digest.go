package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// This file is the state-digest flight recorder: a deterministic hash over
// the simulator's live architectural state, folded hierarchically
// (bank → channel → partition → machine) and sampled on a fixed memory-cycle
// interval into a bounded record stream. Two executions that are bit-identical
// produce identical digest streams; the first record where two streams
// disagree brackets the first divergent interval, which cmd/lazydiverge then
// narrows to an exact cycle by re-running both simulations in lockstep.
//
// The hash is a word-at-a-time FNV-1a variant: each 64-bit value is folded as
// h = (h ^ v) * prime. It is not cryptographic — it only needs to be
// deterministic, order-sensitive, and cheap enough to run inside the <2%
// digest-sampling overhead budget.

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// DefaultDigestEvery is the sampling interval, in memory cycles, that the
// overhead budget (BenchmarkDigestOff/On) is validated at.
const DefaultDigestEvery = 4096

// DefaultDigestCapacity bounds the digest record ring when
// Options.DigestCapacity is 0. At DefaultDigestEvery it retains the full
// stream of any realistic run; if the ring still wraps, the oldest records
// are dropped and counted.
const DefaultDigestCapacity = 1 << 16

// FoldU64 folds one 64-bit value into a rolling digest h. Use FoldSeed as the
// initial value. The free-function form exists for incremental digests kept
// as plain uint64 fields (e.g. the partitions' traffic digests).
func FoldU64(h, v uint64) uint64 { return (h ^ v) * fnvPrime64 }

// FoldBytes folds b into a rolling digest h, 8 bytes at a time
// (little-endian), with the tail zero-padded and the length folded first so
// different-length inputs cannot alias.
func FoldBytes(h uint64, b []byte) uint64 {
	h = FoldU64(h, uint64(len(b)))
	for len(b) >= 8 {
		h = FoldU64(h, binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		h = FoldU64(h, binary.LittleEndian.Uint64(tail[:]))
	}
	return h
}

// FoldSeed returns the initial value for a rolling FoldU64/FoldBytes digest.
func FoldSeed() uint64 { return fnvOffset64 }

// Hasher accumulates a 64-bit state digest. Every fold names its field, so
// one fold list serves both the hash and a human-readable dump: a plain
// hasher ignores the names (naming costs no allocation and no formatting on
// the sampling path), while a dumping hasher (NewDumpHasher) also writes one
// "name=value" line per fold, labeled with the scopes Enter opens
// ("bank[3].fifo[0].arrival=812"). The name is never hashed, so both kinds
// reach the same Sum. The zero value is NOT ready; use NewHasher so every
// digest starts from the same seed.
//
// A plain hasher's integer folds inline: they spell FoldU64 out and test
// one pointer, which keeps them within the inliner's budget.
type Hasher struct {
	h   uint64
	tee *Hasher  // also receives every fold (see Tee)
	out *dumpOut // the dump's line sink, shared by every hasher of one dump
}

// dumpOut collects a dump's lines under the open label scopes.
type dumpOut struct {
	lines []byte
	label []byte // the open scopes, e.g. "bank[3].fifo[0]."
}

// NewHasher returns a hasher seeded with the FNV offset basis.
func NewHasher() *Hasher { return &Hasher{h: fnvOffset64} }

// NewDumpHasher returns a seeded hasher that also writes the lines Dump
// returns.
func NewDumpHasher() *Hasher { return &Hasher{h: fnvOffset64, out: &dumpOut{}} }

// Tee returns a fresh hasher whose folds also reach h: the digest of one
// stretch of h's fold list on its own, without folding that stretch twice.
// Folds reach h on the dumping path only, so a tee always has a line sink:
// h's, or one that nobody reads.
func (h *Hasher) Tee() Hasher {
	out := h.out
	if out == nil {
		out = &dumpOut{}
	}
	return Hasher{h: fnvOffset64, tee: h, out: out}
}

// Enter opens a label scope: the folds until the matching Leave are named
// "name.field" in a dump, or "name[i].field" for list element i.
func (h *Hasher) Enter(name string, i ...int) {
	if h.out != nil {
		h.out.open(name, i)
	}
}

// Leave closes the innermost scope Enter opened. Scope names hold no dot, so
// the scope is the label's last dotted segment.
func (h *Hasher) Leave() {
	if o := h.out; o != nil {
		o.label = o.label[:bytes.LastIndexByte(o.label[:len(o.label)-1], '.')+1]
	}
}

// U64 folds one unsigned 64-bit value.
func (h *Hasher) U64(name string, v uint64) {
	if h.h = (h.h ^ v) * fnvPrime64; h.out != nil {
		h.note(name, v, appendU64)
	}
}

// I64 folds one signed 64-bit value.
func (h *Hasher) I64(name string, v int64) {
	if h.h = (h.h ^ uint64(v)) * fnvPrime64; h.out != nil {
		h.note(name, uint64(v), appendI64)
	}
}

// Int folds one int.
func (h *Hasher) Int(name string, v int) {
	if h.h = (h.h ^ uint64(v)) * fnvPrime64; h.out != nil {
		h.note(name, uint64(v), appendI64)
	}
}

// Bool folds one bool as 1 or 0.
func (h *Hasher) Bool(name string, v bool) {
	var w uint64
	if v {
		w = 1
	}
	if h.h = (h.h ^ w) * fnvPrime64; h.out != nil {
		h.note(name, w, appendBool)
	}
}

// F64 folds one float64 by bit pattern.
func (h *Hasher) F64(name string, v float64) {
	if h.h = (h.h ^ math.Float64bits(v)) * fnvPrime64; h.out != nil {
		h.note(name, math.Float64bits(v), appendF64)
	}
}

// Bytes folds a byte slice (length-prefixed; see FoldBytes); a dump shows it
// in hex.
func (h *Hasher) Bytes(name string, b []byte) {
	for t := h; t != nil; t = t.tee {
		t.h = FoldBytes(t.h, b)
	}
	if h.out != nil {
		h.out.lines = append(hex.AppendEncode(h.out.field(name), b), '\n')
	}
}

// Sum returns the digest accumulated so far.
func (h *Hasher) Sum() uint64 { return h.h }

// Dump returns the lines of a dumping hasher ("" for a plain one).
func (h *Hasher) Dump() string {
	if h.out == nil {
		return ""
	}
	return string(h.out.lines)
}

// note writes the dump line of a word h folded and folds the word into every
// hasher h tees into. It stays out of line so that the folds calling it
// inline.
//
//go:noinline
func (h *Hasher) note(name string, v uint64, appendValue func([]byte, uint64) []byte) {
	for t := h.tee; t != nil; t = t.tee {
		t.h = FoldU64(t.h, v)
	}
	h.out.lines = append(appendValue(h.out.field(name), v), '\n')
}

func (o *dumpOut) open(name string, i []int) {
	o.label = append(o.label, name...)
	if len(i) > 0 {
		o.label = append(strconv.AppendInt(append(o.label, '['), int64(i[0]), 10), ']')
	}
	o.label = append(o.label, '.')
}

// field starts a dump line: the open scopes, the name and "=".
func (o *dumpOut) field(name string) []byte {
	return append(append(append(o.lines, o.label...), name...), '=')
}

func appendU64(b []byte, v uint64) []byte  { return strconv.AppendUint(b, v, 10) }
func appendI64(b []byte, v uint64) []byte  { return strconv.AppendInt(b, int64(v), 10) }
func appendBool(b []byte, v uint64) []byte { return strconv.AppendBool(b, v != 0) }
func appendF64(b []byte, v uint64) []byte {
	return strconv.AppendFloat(b, math.Float64frombits(v), 'g', -1, 64)
}

// PartDigest is one memory partition's component digests at a sample point.
// Every field is an independent sub-digest so a divergence can be attributed
// to a component without re-hashing.
type PartDigest struct {
	// Part is the partition (channel) index.
	Part int `json:"part"`
	// DRAM covers the channel's bank timing/row state plus channel-level
	// constraints (tRRD, column-bus turnaround and tCCDL scoreboards).
	DRAM uint64 `json:"dram"`
	// MC covers the controller's pending queue (per-bank FIFO order, pending
	// entries only), live/ID counters, and the DMS/AMS unit state.
	MC uint64 `json:"mc"`
	// L2 covers the slice's tag/flag/LRU state and the L2 MSHR file. Line
	// data bytes are deliberately NOT hashed (see Traffic).
	L2 uint64 `json:"l2"`
	// Heaps covers the partition-local progress state: the write-back queue,
	// the done/hit heaps, pending replies, and the VP counters.
	Heaps uint64 `json:"heaps"`
	// Traffic is the partition's rolling data digest: every fill's returned
	// bytes (post-fault-corruption) and every write-back's bytes are folded
	// in as they happen. It is cumulative, so a single corrupted fill
	// perturbs every subsequent sample — data divergence stays visible even
	// after the corrupted line itself is evicted.
	Traffic uint64 `json:"traffic"`
	// Stats covers the partition's counter block (stats.Mem).
	Stats uint64 `json:"stats"`
}

// DigestRecord is one sample of the machine digest hierarchy.
type DigestRecord struct {
	// Cycle is the memory cycle the sample was taken at.
	Cycle uint64 `json:"cycle"`
	// Machine is the top-level fold of every component digest below.
	Machine uint64 `json:"machine"`
	// Chain is the rolling fold of every Machine digest up to and including
	// this record — a single value summarizing the whole stream so far.
	Chain uint64 `json:"chain"`
	// Cores folds every SM's digest plus the GPU-level retirement counters.
	Cores uint64 `json:"cores"`
	// Icnt folds both crossbars' in-flight packets.
	Icnt uint64 `json:"icnt"`
	// Parts holds the per-partition component digests, in partition order.
	Parts []PartDigest `json:"parts"`
}

// ComponentDigest labels one node of the digest hierarchy with its path
// (e.g. "partition[3].dram.bank[7]"), for divergence attribution.
type ComponentDigest struct {
	Path   string `json:"path"`
	Digest uint64 `json:"digest"`
}

// DigestLog is the bounded stream of digest records for one run. It is
// written only from the simulation goroutine; it is not safe for concurrent
// use.
type DigestLog struct {
	every uint64
	recs  ring[DigestRecord]
	chain uint64
	final uint64
}

// NewDigestLog creates a digest log sampling every `every` memory cycles,
// retaining at most capacity records (0 picks DefaultDigestCapacity).
func NewDigestLog(every uint64, capacity int) *DigestLog {
	if every == 0 {
		return nil
	}
	if capacity <= 0 {
		capacity = DefaultDigestCapacity
	}
	return &DigestLog{every: every, recs: ring[DigestRecord]{limit: capacity}, chain: fnvOffset64}
}

// Every returns the sampling interval in memory cycles (0 for a nil log).
func (l *DigestLog) Every() uint64 {
	if l == nil {
		return 0
	}
	return l.every
}

// Record appends one sample. The record's Chain field is filled in from the
// log's rolling chain; when the ring is full the oldest record is dropped.
func (l *DigestLog) Record(rec DigestRecord) {
	if l == nil {
		return
	}
	l.chain = FoldU64(l.chain, rec.Machine)
	rec.Chain = l.chain
	l.recs.add(rec)
}

// Records returns the retained records, oldest first (a copy).
func (l *DigestLog) Records() []DigestRecord {
	if l == nil {
		return nil
	}
	return l.recs.items()
}

// Chain returns the rolling chain digest over every recorded machine digest.
func (l *DigestLog) Chain() uint64 {
	if l == nil {
		return 0
	}
	return l.chain
}

// Finalize stores the end-of-run machine digest, computed at collect time
// before the end-of-run drains and flushes mutate the state.
func (l *DigestLog) Finalize(machine uint64) {
	if l == nil {
		return
	}
	l.final = machine
}

// Final returns the digest stored by Finalize.
func (l *DigestLog) Final() uint64 {
	if l == nil {
		return 0
	}
	return l.final
}

// Summary returns the serializable chain summary (nil for a nil log).
func (l *DigestLog) Summary() *DigestSummary {
	if l == nil {
		return nil
	}
	return &DigestSummary{
		Every:     l.every,
		Intervals: l.recs.total,
		Dropped:   l.recs.dropped(),
		Final:     hex64(l.final),
		Chain:     hex64(l.chain),
		FinalHi:   uint32(l.final >> 32),
		FinalLo:   uint32(l.final),
		ChainHi:   uint32(l.chain >> 32),
		ChainLo:   uint32(l.chain),
	}
}

// WriteJSONL writes the retained records as one JSON object per line,
// oldest first. cmd/lazydiverge consumes this stream directly.
func (l *DigestLog) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, rec := range l.Records() {
		if err := enc.Encode(&rec); err != nil {
			return err
		}
	}
	return nil
}

// ReadDigestJSONL parses a stream written by WriteJSONL.
func ReadDigestJSONL(r io.Reader) ([]DigestRecord, error) {
	dec := json.NewDecoder(r)
	var out []DigestRecord
	for {
		var rec DigestRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// hex64 renders a digest as "0x%016x".
func hex64(v uint64) string { return fmt.Sprintf("0x%016x", v) }

// DigestSummary is the telemetry.digest chain summary in the -json document:
// a single exact bit-identity key for a whole run. The 64-bit digests are
// carried both as hex strings (human-readable; string fields are never
// gated) and as hi/lo 32-bit halves, which are exact in float64 so
// lazycmp can gate on them without precision loss.
type DigestSummary struct {
	Every     uint64 `json:"every"`
	Intervals uint64 `json:"intervals"`
	Dropped   uint64 `json:"dropped,omitempty"`
	Final     string `json:"final"`
	Chain     string `json:"chain"`
	FinalHi   uint32 `json:"final_hi"`
	FinalLo   uint32 `json:"final_lo"`
	ChainHi   uint32 `json:"chain_hi"`
	ChainLo   uint32 `json:"chain_lo"`
}
