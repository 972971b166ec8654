// Package fault models the bit errors an aggressively energy-efficient DRAM
// produces, closing the "error tolerance" half of the paper's claim: DMS/AMS
// shave timing and energy margins, and this package injects the resulting
// data corruption into the bytes DRAM actually returns, so errors flow
// through the memory controller and caches into core registers and workload
// outputs where their application-level impact can be measured.
//
// Three error modes are modeled, each tied to the scheduler state the lazy
// units manipulate:
//
//   - Activation errors: the first column access of an activation reads
//     sense amplifiers that, under a reduced-tRCD activation, have not fully
//     developed. Cells from the row's weak-cell population flip.
//   - Retention errors: a row held open past a configurable age (as DMS's
//     delayed scheduling encourages) leaks charge beyond the margin of its
//     weak cells; reads from the over-aged row flip them.
//   - Bus transients: every read burst flips each transferred bit with a
//     base bit-error rate, independent of row state (signal-integrity noise
//     from reduced I/O voltage).
//
// The weak-cell population is a deterministic per-channel/bank/row map:
// positions are drawn from a row-local RNG seeded by (seed, channel, bank,
// row), so the map is stable for a whole run and across runs with the same
// seed, regardless of access order. All probabilistic draws derive from the
// configured seed, making every injected fault — count and location —
// reproducible, which the repository's determinism gates rely on.
//
// The package depends only on internal/stats (injection counters land in
// stats.Mem's bank matrix) and is imported by mc and sim; it must
// never import them back.
package fault

import (
	"math"
	"math/rand"

	"lazydram/internal/stats"
)

// LineBytes is the DRAM access granularity in bytes (one cache line); it
// mirrors memimage.LineSize without importing it.
const LineBytes = 128

// lineBits is the number of data bits in one read burst.
const lineBits = LineBytes * 8

// Mode classifies an injected bit flip by its physical mechanism.
type Mode uint8

// Fault modes.
const (
	// ModeActivation: weak cell read on the first column access after ACT
	// (reduced-tRCD sensing failure).
	ModeActivation Mode = iota
	// ModeRetention: weak cell read from a row held open past the retention
	// threshold (charge leakage under delayed scheduling).
	ModeRetention
	// ModeBus: transfer-time transient at the base bit-error rate.
	ModeBus

	numModes
)

func (m Mode) String() string {
	switch m {
	case ModeActivation:
		return "activation"
	case ModeRetention:
		return "retention"
	case ModeBus:
		return "bus"
	default:
		return "Mode(?)"
	}
}

// Config parameterizes the fault model. The zero value is disabled; use
// DefaultConfig as the basis for enabled configurations so the per-mode flip
// probabilities and retention threshold get their documented defaults.
type Config struct {
	// Enabled turns injection on. When false the rest is ignored.
	Enabled bool
	// Seed drives every random draw. sim.Simulate substitutes the run's
	// input seed when it is 0, so fault runs are reproducible end to end
	// from a single -seed unless an explicit fault seed is given.
	Seed int64
	// BusBER is the per-bit flip probability applied to every read burst.
	BusBER float64
	// WeakCellDensity is the fraction of each row's bits that are weak
	// (susceptible to activation and retention failures).
	WeakCellDensity float64
	// ActFlipProb and RetFlipProb are the probabilities that a weak cell
	// covered by a qualifying read actually flips. 0 means the default 1.0
	// (weak cells fail deterministically), matching the stable weak-cell
	// semantics the determinism gates expect.
	ActFlipProb float64
	RetFlipProb float64
	// RetentionThreshold is the open-row age, in memory cycles, beyond which
	// reads suffer retention flips (0 picks DefaultRetentionThreshold).
	RetentionThreshold uint64
}

// DefaultRetentionThreshold is the open-row age at which retention errors
// arm when Config.RetentionThreshold is 0. It is far beyond a well-behaved
// activation's lifetime but within reach of DMS-held rows.
const DefaultRetentionThreshold = 4096

// DefaultConfig returns a disabled configuration with the documented
// defaults for everything else.
func DefaultConfig() Config {
	return Config{
		ActFlipProb:        1,
		RetFlipProb:        1,
		RetentionThreshold: DefaultRetentionThreshold,
	}
}

// BitFlip is one injected flip: a bit offset within the 128-byte line and
// the mode that produced it.
type BitFlip struct {
	Offset uint16
	Mode   Mode
}

// LineFaults carries the flips injected into one read burst. A nil
// *LineFaults means the burst was clean.
type LineFaults struct {
	Bits []BitFlip
}

// Apply XORs the flips into data (a full 128-byte line). Nil-safe.
func (f *LineFaults) Apply(data []byte) {
	if f == nil {
		return
	}
	for _, b := range f.Bits {
		data[b.Offset>>3] ^= 1 << (b.Offset & 7)
	}
}

// Count returns the number of injected flips (0 for nil).
func (f *LineFaults) Count() int {
	if f == nil {
		return 0
	}
	return len(f.Bits)
}

// weakKey identifies one row's weak-cell list within a channel.
type weakKey struct {
	bank int
	row  int64
}

// Injector injects faults for one DRAM channel. It is not safe for
// concurrent use; the simulator drives each channel from a single goroutine.
type Injector struct {
	cfg     Config
	channel int
	rowBits int
	st      *stats.Mem

	rng  *rand.Rand // bus transients and sub-unity weak-flip draws
	weak map[weakKey][]uint16

	reads     uint64
	corrupted uint64
	flips     [numModes]uint64
	weakRows  uint64
	weakCells uint64
	digest    uint64
}

// NewInjector creates the injector for one channel. rowBytes is the DRAM
// row size (weak-cell positions are drawn per row); st receives the
// channel's fault counters (aggregate and per bank) and may not be nil.
func NewInjector(cfg Config, channel int, rowBytes uint64, st *stats.Mem) *Injector {
	if cfg.ActFlipProb <= 0 {
		cfg.ActFlipProb = 1
	}
	if cfg.RetFlipProb <= 0 {
		cfg.RetFlipProb = 1
	}
	if cfg.RetentionThreshold == 0 {
		cfg.RetentionThreshold = DefaultRetentionThreshold
	}
	if rowBytes == 0 {
		rowBytes = 2048
	}
	return &Injector{
		cfg:     cfg,
		channel: channel,
		rowBits: int(rowBytes * 8),
		st:      st,
		rng:     rand.New(rand.NewSource(mix(cfg.Seed, int64(channel), 0x6a09e667, 0))),
		weak:    make(map[weakKey][]uint16),
	}
}

// Config returns the injector's (normalized) configuration.
func (inj *Injector) Config() Config { return inj.cfg }

// mix folds the inputs into a 64-bit seed (splitmix64 finalizer over a
// running combination), so row-local RNGs are decorrelated across
// (seed, channel, bank, row) without storing anything.
func mix(vs ...int64) int64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= uint64(v) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h)
}

// geomNext returns the distance to the next success of a Bernoulli(p)
// sequence (>= 1), sampled by inversion. p must be in (0, 1).
func geomNext(rng *rand.Rand, p float64) int {
	u := rng.Float64()
	// log(1-u) is finite because Float64 is in [0, 1).
	return int(math.Floor(math.Log(1-u)/math.Log(1-p))) + 1
}

// bernoulliPositions draws the positions of successes of a Bernoulli(p)
// process over n bits via geometric skipping, in ascending order.
func bernoulliPositions(rng *rand.Rand, p float64, n int) []uint16 {
	if p <= 0 || n <= 0 {
		return nil
	}
	if p >= 1 {
		out := make([]uint16, n)
		for i := range out {
			out[i] = uint16(i)
		}
		return out
	}
	var out []uint16
	for i := geomNext(rng, p) - 1; i < n; i += geomNext(rng, p) {
		out = append(out, uint16(i))
	}
	return out
}

// weakRow returns (materializing on first use) the sorted weak-cell bit
// offsets of the given row. The list is drawn from a row-local RNG, so it is
// independent of the order rows are first touched in.
func (inj *Injector) weakRow(bank int, row int64) []uint16 {
	key := weakKey{bank, row}
	if w, ok := inj.weak[key]; ok {
		return w
	}
	rng := rand.New(rand.NewSource(mix(inj.cfg.Seed, int64(inj.channel), int64(bank), row)))
	w := bernoulliPositions(rng, inj.cfg.WeakCellDensity, inj.rowBits)
	inj.weak[key] = w
	if len(w) > 0 {
		inj.weakRows++
		inj.weakCells += uint64(len(w))
	}
	return w
}

// OnRead decides the faults for one read burst: bank/row/col locate the
// accessed line (col is the byte offset of the line within the row),
// firstAccess marks the activation's first column access, and openAge is the
// row's cycles-since-ACT. It updates the stats counters and returns nil for
// a clean burst.
func (inj *Injector) OnRead(bank int, row int64, col uint64, firstAccess bool, openAge uint64) *LineFaults {
	inj.reads++
	var bits []BitFlip

	// Weak-cell modes: activation on first access, retention on over-aged
	// rows. The two are mutually exclusive for one read — a first access
	// happens tRCD after ACT, long before the retention threshold.
	mode, prob := ModeActivation, inj.cfg.ActFlipProb
	active := firstAccess
	if !active && openAge >= inj.cfg.RetentionThreshold {
		mode, prob, active = ModeRetention, inj.cfg.RetFlipProb, true
	}
	if active && inj.cfg.WeakCellDensity > 0 {
		lo := uint16(col * 8)
		hi := lo + lineBits
		for _, w := range inj.weakRow(bank, row) {
			if w < lo || w >= hi {
				continue
			}
			if prob < 1 && inj.rng.Float64() >= prob {
				continue
			}
			bits = append(bits, BitFlip{Offset: w - lo, Mode: mode})
		}
	}

	// Bus transients hit any transferred bit; a position already flipped by
	// a weak cell is skipped so every recorded flip corrupts the line (two
	// XORs would cancel and overstate the counters).
	if inj.cfg.BusBER > 0 {
	bus:
		for _, off := range bernoulliPositions(inj.rng, inj.cfg.BusBER, lineBits) {
			for _, b := range bits {
				if b.Offset == off {
					continue bus
				}
			}
			bits = append(bits, BitFlip{Offset: off, Mode: ModeBus})
		}
	}

	if len(bits) == 0 {
		return nil
	}
	inj.corrupted++
	inj.st.FaultReads++
	bs := inj.st.Bank(bank)
	for _, b := range bits {
		inj.flips[b.Mode]++
		bs.FaultFlips++
		switch b.Mode {
		case ModeActivation:
			inj.st.FaultActFlips++
		case ModeRetention:
			inj.st.FaultRetFlips++
		case ModeBus:
			inj.st.FaultBusFlips++
		}
		inj.noteDigest(bank, row, col, b)
	}
	return &LineFaults{Bits: bits}
}

// noteDigest folds one flip's full location into the running digest (FNV-1a
// over the flip stream), so two runs injecting the same faults in the same
// order — and only those — agree.
func (inj *Injector) noteDigest(bank int, row int64, col uint64, b BitFlip) {
	h := inj.digest
	if h == 0 {
		h = 0xcbf29ce484222325
	}
	for _, v := range [...]uint64{uint64(inj.channel), uint64(bank), uint64(row), col, uint64(b.Offset), uint64(b.Mode)} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 0x100000001b3
		}
	}
	inj.digest = h
}

// Summary is the injector's aggregate view, one per channel; sim merges them
// into the run-level obs.FaultSummary telemetry block.
type Summary struct {
	Reads          uint64 // read bursts offered to the injector
	CorruptedReads uint64 // bursts with at least one flip
	ActFlips       uint64
	RetFlips       uint64
	BusFlips       uint64
	WeakRows       uint64 // rows whose materialized weak-cell list is non-empty
	WeakCells      uint64 // weak cells across those rows
	Digest         uint64 // order-sensitive digest of every (location, mode) flip
}

// TotalFlips returns the all-mode flip count.
func (s Summary) TotalFlips() uint64 { return s.ActFlips + s.RetFlips + s.BusFlips }

// Merge folds o into s (digests combine by FNV-1a over the pair).
func (s *Summary) Merge(o Summary) {
	s.Reads += o.Reads
	s.CorruptedReads += o.CorruptedReads
	s.ActFlips += o.ActFlips
	s.RetFlips += o.RetFlips
	s.BusFlips += o.BusFlips
	s.WeakRows += o.WeakRows
	s.WeakCells += o.WeakCells
	if o.Digest != 0 {
		h := s.Digest
		if h == 0 {
			h = 0xcbf29ce484222325
		}
		for i := 0; i < 8; i++ {
			h ^= (o.Digest >> (8 * i)) & 0xff
			h *= 0x100000001b3
		}
		s.Digest = h
	}
}

// Summary snapshots the injector's counters.
func (inj *Injector) Summary() Summary {
	return Summary{
		Reads:          inj.reads,
		CorruptedReads: inj.corrupted,
		ActFlips:       inj.flips[ModeActivation],
		RetFlips:       inj.flips[ModeRetention],
		BusFlips:       inj.flips[ModeBus],
		WeakRows:       inj.weakRows,
		WeakCells:      inj.weakCells,
		Digest:         inj.digest,
	}
}
