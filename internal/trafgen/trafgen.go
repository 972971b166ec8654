// Package trafgen provides synthetic DRAM request generators and a
// standalone memory-controller harness. It lets the lazy scheduler be
// studied without the full GPU: generators produce parameterized arrival
// streams (sequential, strided, Zipf-distributed rows, mixed read/write)
// and Drive runs them through an mc.Controller, returning the usual
// row-buffer statistics.
//
// The GPU workloads in internal/workloads are the paper's evaluation
// vehicles; trafgen exists for controlled micro-studies like the paper's
// Figures 3 and 8, sensitivity sweeps, and the package's own tests.
package trafgen

import (
	"math/rand"

	"lazydram/internal/dram"
	"lazydram/internal/fault"
	"lazydram/internal/mc"
	"lazydram/internal/stats"
)

// Request is one synthetic DRAM request in channel-local coordinates.
type Request struct {
	Bank         int
	Row          int64
	Col          uint64 // byte offset in the row, line aligned
	Write        bool
	Approximable bool
}

// Generator produces an arrival stream: each call returns the next request
// and the gap, in memory cycles, before the one after it arrives.
type Generator interface {
	Next(rng *rand.Rand) (req Request, gap uint64)
}

// Stream emits sequential lines walking through rows and banks — the
// coalesced streaming shape. Gap is the constant inter-arrival time.
type Stream struct {
	Banks int
	Rows  int64
	// LineBytes and RowBytes define the column walk (defaults 128/2048).
	LineBytes uint64
	RowBytes  uint64
	Gap       uint64

	pos uint64
}

func (s *Stream) geometry() (line, row uint64) {
	line, row = s.LineBytes, s.RowBytes
	if line == 0 {
		line = 128
	}
	if row == 0 {
		row = 2048
	}
	return line, row
}

// Next implements Generator.
func (s *Stream) Next(*rand.Rand) (Request, uint64) {
	line, row := s.geometry()
	linesPerRow := row / line
	idx := s.pos
	s.pos++
	col := (idx % linesPerRow) * line
	seq := idx / linesPerRow
	bank := int(seq) % s.Banks
	r := int64(seq/uint64(s.Banks)) % s.Rows
	return Request{Bank: bank, Row: r, Col: col, Approximable: true}, s.Gap
}

// Strided emits requests that touch a new row every time — the worst-case
// row-thrashing shape (one line per row visit).
type Strided struct {
	Banks int
	Rows  int64
	Gap   uint64

	pos uint64
}

// Next implements Generator.
func (s *Strided) Next(*rand.Rand) (Request, uint64) {
	idx := s.pos
	s.pos++
	bank := int(idx) % s.Banks
	row := int64(idx/uint64(s.Banks)) % s.Rows
	col := (idx * 128) % 2048
	return Request{Bank: bank, Row: row, Col: col, Approximable: true}, s.Gap
}

// Zipf emits rows with a Zipf popularity distribution: a few hot rows
// collect most requests (high intrinsic RBL) over a long cold tail of
// single-visit rows (the AMS target population).
type Zipf struct {
	Banks int
	Rows  int64
	// S and V parameterize rand.Zipf (S > 1; larger S = more skew).
	S, V float64
	Gap  uint64
	// WriteFrac is the probability a request is a write.
	WriteFrac float64

	z *rand.Zipf
}

// Next implements Generator.
func (z *Zipf) Next(rng *rand.Rand) (Request, uint64) {
	if z.z == nil {
		s, v := z.S, z.V
		if s <= 1 {
			s = 1.3
		}
		if v < 1 {
			v = 1
		}
		z.z = rand.NewZipf(rng, s, v, uint64(z.Rows)-1)
	}
	row := int64(z.z.Uint64())
	bank := rng.Intn(z.Banks)
	col := uint64(rng.Intn(16)) * 128
	w := rng.Float64() < z.WriteFrac
	return Request{Bank: bank, Row: row, Col: col, Write: w, Approximable: !w}, z.Gap
}

// Mixed interleaves several generators round-robin.
type Mixed struct {
	Gens []Generator
	turn int
}

// Next implements Generator.
func (m *Mixed) Next(rng *rand.Rand) (Request, uint64) {
	g := m.Gens[m.turn%len(m.Gens)]
	m.turn++
	req, gap := g.Next(rng)
	return req, gap
}

// Result is what Drive returns.
type Result struct {
	Mem      stats.Mem
	Served   uint64
	Dropped  uint64
	Cycles   uint64
	Rejected uint64 // arrivals lost to a full queue
	// Faults summarizes injected faults (zero unless DriveConfig.Fault is
	// enabled).
	Faults fault.Summary
}

// DriveConfig gathers everything a standalone controller harness run needs.
// The RNG seed is explicit so sweep experiments (including fault sweeps) are
// reproducible end to end from their configuration alone.
type DriveConfig struct {
	MC   mc.Config
	DRAM dram.Config
	// Seed drives the generator's RNG.
	Seed int64
	// Fault optionally attaches the DRAM error model to the channel; its
	// Seed defaults to DriveConfig.Seed when 0.
	Fault fault.Config
	// AddrMap encodes channel-local coordinates into the global addresses
	// requests carry (nil-value picks dram.DefaultAddrMap).
	AddrMap *dram.AddrMap
}

// Drive runs n requests from gen through a controller configured with
// mcCfg over one DRAM channel, then drains the queue. Requests arriving
// while the pending queue is full are counted in Rejected and discarded
// (open-loop injection). It is shorthand for DriveWith without faults.
func Drive(mcCfg mc.Config, dramCfg dram.Config, gen Generator, n int, seed int64) Result {
	return DriveWith(DriveConfig{MC: mcCfg, DRAM: dramCfg, Seed: seed}, gen, n)
}

// DriveWith is the configurable form of Drive.
func DriveWith(cfg DriveConfig, gen Generator, n int) Result {
	var res Result
	st := &stats.Mem{}
	ch := dram.NewChannel(cfg.DRAM, st)
	ctrl := mc.New(cfg.MC, ch, st, func(r *mc.Request, approx bool, at uint64) {
		if approx {
			res.Dropped++
		} else {
			res.Served++
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
	rng := rand.New(rand.NewSource(cfg.Seed))
	am := dram.DefaultAddrMap()
	if cfg.AddrMap != nil {
		am = *cfg.AddrMap
	}

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
		now++
		if now > uint64(n)*10000+1_000_000 {
			break // safety net against a wedged configuration
		}
	}
	ctrl.Drain()
	res.Mem = *st
	res.Cycles = now
	if inj != nil {
		res.Faults = inj.Summary()
	}
	return res
}
