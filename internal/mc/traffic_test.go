package mc

import (
	"math/rand"
	"testing"

	"lazydram/internal/dram"
	"lazydram/internal/fault"
	"lazydram/internal/stats"
)

// Synthetic DRAM request generators and a standalone controller harness:
// generators produce parameterized arrival streams (sequential, strided,
// Zipf-distributed rows, mixed read/write) and driveWith runs them through a
// Controller over one DRAM channel, returning the usual row-buffer
// statistics. They drive the controller without the full GPU for the
// properties below and for the horizon and recycling tests.

// genReq is one synthetic DRAM request in channel-local coordinates.
type genReq struct {
	Bank         int
	Row          int64
	Col          uint64 // byte offset in the row, line aligned
	Write        bool
	Approximable bool
}

// generator produces an arrival stream: each call returns the next request
// and the gap, in memory cycles, before the one after it arrives.
type generator interface {
	Next(rng *rand.Rand) (req genReq, gap uint64)
}

// streamGen emits sequential lines walking through rows and banks — the
// coalesced streaming shape. Gap is the constant inter-arrival time.
type streamGen struct {
	Banks int
	Rows  int64
	Gap   uint64

	pos uint64
}

// Next implements generator over 128 B lines in 2 KiB rows.
func (s *streamGen) Next(*rand.Rand) (genReq, uint64) {
	const line, linesPerRow = 128, 16
	idx := s.pos
	s.pos++
	col := (idx % linesPerRow) * line
	seq := idx / linesPerRow
	bank := int(seq) % s.Banks
	r := int64(seq/uint64(s.Banks)) % s.Rows
	return genReq{Bank: bank, Row: r, Col: col, Approximable: true}, s.Gap
}

// stridedGen emits requests that touch a new row every time — the
// worst-case row-thrashing shape (one line per row visit).
type stridedGen struct {
	Banks int
	Rows  int64
	Gap   uint64

	pos uint64
}

// Next implements generator.
func (s *stridedGen) Next(*rand.Rand) (genReq, uint64) {
	idx := s.pos
	s.pos++
	bank := int(idx) % s.Banks
	row := int64(idx/uint64(s.Banks)) % s.Rows
	col := (idx * 128) % 2048
	return genReq{Bank: bank, Row: row, Col: col, Approximable: true}, s.Gap
}

// zipfGen emits rows with a Zipf popularity distribution: a few hot rows
// collect most requests (high intrinsic RBL) over a long cold tail of
// single-visit rows (the AMS target population).
type zipfGen struct {
	Banks int
	Rows  int64
	// S parameterizes rand.Zipf (S > 1; larger S = more skew).
	S   float64
	Gap uint64
	// WriteFrac is the probability a request is a write.
	WriteFrac float64

	z *rand.Zipf
}

// Next implements generator.
func (z *zipfGen) Next(rng *rand.Rand) (genReq, uint64) {
	if z.z == nil {
		s := z.S
		if s <= 1 {
			s = 1.3
		}
		z.z = rand.NewZipf(rng, s, 1, uint64(z.Rows)-1)
	}
	row := int64(z.z.Uint64())
	bank := rng.Intn(z.Banks)
	col := uint64(rng.Intn(16)) * 128
	w := rng.Float64() < z.WriteFrac
	return genReq{Bank: bank, Row: row, Col: col, Write: w, Approximable: !w}, z.Gap
}

// mixedGen interleaves several generators round-robin.
type mixedGen struct {
	Gens []generator
	turn int
}

// Next implements generator.
func (m *mixedGen) Next(rng *rand.Rand) (genReq, uint64) {
	g := m.Gens[m.turn%len(m.Gens)]
	m.turn++
	return g.Next(rng)
}

// driveResult is what driveWith returns.
type driveResult struct {
	Mem      stats.Mem
	Served   uint64
	Dropped  uint64
	Cycles   uint64
	Rejected uint64 // arrivals lost to a full queue
	// Faults summarizes injected faults (zero unless driveConfig.Fault is
	// enabled).
	Faults fault.Summary
}

// driveConfig gathers everything a standalone controller run needs. The RNG
// seed is explicit so a run is reproducible from its configuration alone.
type driveConfig struct {
	MC   Config
	DRAM dram.Config
	// Seed drives the generator's RNG.
	Seed int64
	// Fault optionally attaches the DRAM error model to the channel; its
	// Seed defaults to driveConfig.Seed when 0.
	Fault fault.Config

	// Optional hooks: setup runs once on the new controller (to attach
	// telemetry or set test switches), done after every completion, and
	// tick after every Tick.
	setup func(c *Controller)
	done  func(r *Request, approx bool, readyAt uint64)
	tick  func(c *Controller, now uint64)
}

// drive runs n requests from gen under scheme through a default controller
// and channel with seed 1.
func drive(t *testing.T, scheme Scheme, gen generator, n int) driveResult {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	return driveWith(driveConfig{MC: cfg, DRAM: dram.DefaultConfig(), Seed: 1}, gen, n)
}

// driveWith runs n requests from gen through a controller over one DRAM
// channel, then drains the queue. Requests arriving while the pending queue
// is full are counted in Rejected and discarded (open-loop injection).
func driveWith(cfg driveConfig, gen generator, n int) driveResult {
	var res driveResult
	st := &stats.Mem{}
	ch := dram.NewChannel(cfg.DRAM, st)
	ctrl := New(cfg.MC, ch, st, func(r *Request, approx bool, at uint64) {
		if approx {
			res.Dropped++
		} else {
			res.Served++
		}
		if cfg.done != nil {
			cfg.done(r, approx, at)
		}
	}, nil)
	var inj *fault.Injector
	if cfg.Fault.Enabled {
		fc := cfg.Fault
		if fc.Seed == 0 {
			fc.Seed = cfg.Seed
		}
		inj = fault.NewInjector(fc, 0, cfg.DRAM.RowBytes, st)
		ctrl.SetFaults(inj)
	}
	if cfg.setup != nil {
		cfg.setup(ctrl)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	am := dram.DefaultAddrMap()

	var now, nextArrival uint64
	emitted := 0
	for emitted < n || ctrl.Pending() > 0 {
		if emitted < n && now >= nextArrival {
			req, gap := gen.Next(rng)
			emitted++
			nextArrival = now + gap
			if ctrl.Full() {
				res.Rejected++
			} else {
				c := dram.Coord{Channel: 0, Bank: req.Bank, Row: req.Row, Col: req.Col}
				ctrl.Push(am.Encode(c), req.Write, req.Approximable, c)
			}
		}
		ctrl.Tick(now)
		if cfg.tick != nil {
			cfg.tick(ctrl, now)
		}
		now++
		if now > uint64(n)*10000+1_000_000 {
			break // safety net against a wedged configuration
		}
	}
	ctrl.Drain()
	ctrl.CensusFinish(now)
	res.Mem = *st
	res.Cycles = now
	if inj != nil {
		res.Faults = inj.Summary()
	}
	return res
}

func TestStreamHasHighRBL(t *testing.T) {
	res := drive(t, Baseline, &streamGen{Banks: 16, Rows: 64, Gap: 4}, 4000)
	if res.Served != 4000 {
		t.Fatalf("served %d, want 4000", res.Served)
	}
	if rbl := res.Mem.AvgRBL(); rbl < 8 {
		t.Fatalf("streaming Avg-RBL = %.2f, want near the 16-line row limit", rbl)
	}
}

func TestStridedThrashes(t *testing.T) {
	res := drive(t, Baseline, &stridedGen{Banks: 16, Rows: 256, Gap: 4}, 4000)
	if rbl := res.Mem.AvgRBL(); rbl > 1.5 {
		t.Fatalf("strided Avg-RBL = %.2f, want ~1 (one line per row visit)", rbl)
	}
}

func TestZipfIsSkewed(t *testing.T) {
	res := drive(t, Baseline, &zipfGen{Banks: 16, Rows: 4096, S: 1.5, Gap: 4}, 6000)
	// Hot rows give mid RBL; the cold tail keeps plenty of RBL(1) rows.
	if res.Mem.RBL[1] == 0 {
		t.Fatal("Zipf traffic should produce single-visit rows")
	}
	if res.Mem.RBLShare(9, 64) == 0 {
		t.Fatal("Zipf traffic should also produce hot high-RBL rows")
	}
}

func TestDMSHelpsRevisitingTraffic(t *testing.T) {
	// Strided traffic that wraps around its row set: the baseline re-opens
	// each row per lap (one lap = 32 requests x 16 cycles = 512 cycles); a
	// delay longer than a lap lets the queue batch repeat visits together.
	gen := func() generator { return &stridedGen{Banks: 4, Rows: 8, Gap: 16} }
	base := drive(t, Baseline, gen(), 3000)
	dms := drive(t, Scheme{DMS: Static, StaticDelay: 1024}, gen(), 3000)
	if dms.Mem.Activations >= base.Mem.Activations {
		t.Fatalf("DMS activations %d >= baseline %d", dms.Mem.Activations, base.Mem.Activations)
	}
}

func TestAMSDropsZipfTail(t *testing.T) {
	gen := &zipfGen{Banks: 16, Rows: 8192, S: 1.4, Gap: 4}
	res := drive(t, StaticAMS, gen, 6000)
	if res.Dropped == 0 {
		t.Fatal("AMS dropped nothing from a single-visit-heavy stream")
	}
	if cov := float64(res.Dropped) / 6000; cov > 0.102 {
		t.Fatalf("coverage %.3f exceeds the cap", cov)
	}
	base := drive(t, Baseline, &zipfGen{Banks: 16, Rows: 8192, S: 1.4, Gap: 4}, 6000)
	if res.Mem.Activations >= base.Mem.Activations {
		t.Fatalf("AMS activations %d >= baseline %d", res.Mem.Activations, base.Mem.Activations)
	}
}

func TestWritesAreNeverDropped(t *testing.T) {
	gen := &zipfGen{Banks: 8, Rows: 4096, S: 1.4, Gap: 4, WriteFrac: 0.5}
	res := drive(t, StaticAMS, gen, 4000)
	if res.Served+res.Dropped+res.Rejected != 4000 {
		t.Fatalf("conservation violated: %d+%d+%d != 4000", res.Served, res.Dropped, res.Rejected)
	}
	if res.Mem.Writes == 0 {
		t.Fatal("no writes served")
	}
	// Drops only ever come from the read population.
	if res.Dropped > res.Mem.ReadReqs {
		t.Fatal("more drops than read requests")
	}
}

func TestMixedRoundRobins(t *testing.T) {
	m := &mixedGen{Gens: []generator{
		&streamGen{Banks: 16, Rows: 8, Gap: 2},
		&stridedGen{Banks: 16, Rows: 256, Gap: 7},
	}}
	rng := rand.New(rand.NewSource(1))
	_, gapA := m.Next(rng)
	_, gapB := m.Next(rng)
	_, gapC := m.Next(rng)
	if gapA != 2 || gapB != 7 || gapC != 2 {
		t.Fatalf("mixed generator did not alternate: gaps %d %d %d", gapA, gapB, gapC)
	}
	res := drive(t, Baseline, m, 2000)
	if res.Served != 2000 {
		t.Fatalf("served %d, want 2000", res.Served)
	}
}

func TestOpenLoopRejectsWhenSaturated(t *testing.T) {
	// Gap 0: all requests arrive instantly; the 128-entry queue must reject
	// most of a large burst rather than deadlock.
	res := drive(t, Baseline, &stridedGen{Banks: 1, Rows: 4096, Gap: 0}, 5000)
	if res.Rejected == 0 {
		t.Fatal("zero-gap burst should overflow the queue")
	}
	if res.Served+res.Rejected != 5000 {
		t.Fatalf("conservation violated: %d+%d != 5000", res.Served, res.Rejected)
	}
}

func TestDriveWithFaultsDeterministic(t *testing.T) {
	gen := func() generator { return &zipfGen{Banks: 16, Rows: 2048, S: 1.3, Gap: 5} }
	cfg := driveConfig{MC: DefaultConfig(), DRAM: dram.DefaultConfig(), Seed: 3}
	plain := driveWith(cfg, gen(), 3000)
	cfg.Fault = fault.Config{Enabled: true, BusBER: 1e-5, WeakCellDensity: 1e-3}
	a, b := driveWith(cfg, gen(), 3000), driveWith(cfg, gen(), 3000)
	if a.Faults.Digest != b.Faults.Digest || a.Faults.TotalFlips() != b.Faults.TotalFlips() {
		t.Fatalf("fault injection nondeterministic: %+v vs %+v", a.Faults, b.Faults)
	}
	if a.Faults.TotalFlips() == 0 {
		t.Fatal("no faults injected at BER 1e-5 / density 1e-3")
	}
	// The generator RNG is seeded from driveConfig.Seed, so the traffic —
	// and therefore the served counts — must match a fault-free drive.
	if a.Served != plain.Served || a.Mem.Reads != plain.Mem.Reads {
		t.Fatalf("fault drive changed traffic: served %d/%d reads %d/%d",
			a.Served, plain.Served, a.Mem.Reads, plain.Mem.Reads)
	}
	if err := a.Mem.Validate(); err != nil {
		t.Fatalf("Validate failed on fault drive: %v", err)
	}
}

func TestDriveDeterminism(t *testing.T) {
	gen := func() generator { return &zipfGen{Banks: 16, Rows: 2048, S: 1.3, Gap: 5} }
	a := drive(t, DynBoth, gen(), 3000)
	b := drive(t, DynBoth, gen(), 3000)
	if a.Mem.Activations != b.Mem.Activations || a.Dropped != b.Dropped || a.Cycles != b.Cycles {
		t.Fatalf("nondeterministic drive: %+v vs %+v", a, b)
	}
}
