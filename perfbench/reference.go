package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"

	"lazydram/internal/sim"
)

// outcome is the deterministic result of one simulation: what the
// correctness check compares. Host timings never enter it.
type outcome struct {
	CoreCycles   uint64
	MemCycles    uint64
	Instructions uint64
	Reads        uint64
	Writes       uint64
	Activations  uint64
	Dropped      uint64
	// OutputHash is FNV-64a over the output buffer's float32 bit patterns.
	OutputHash uint64
	AppError   float64
}

func outcomeOf(res *sim.Result, memCycles uint64) outcome {
	h := fnv.New64a()
	var b [4]byte
	for _, f := range res.Output {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(f))
		h.Write(b[:])
	}
	r := &res.Run
	return outcome{
		CoreCycles:   r.CoreCycles,
		MemCycles:    memCycles,
		Instructions: r.Instructions,
		Reads:        r.Mem.Reads,
		Writes:       r.Mem.Writes,
		Activations:  r.Mem.Activations,
		Dropped:      r.Mem.Dropped,
		OutputHash:   h.Sum64(),
		AppError:     r.AppError,
	}
}

// drift names every field in which got differs from want.
func drift(want, got outcome) []string {
	var out []string
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < wv.NumField(); i++ {
		if !wv.Field(i).Equal(gv.Field(i)) {
			out = append(out, fmt.Sprintf("%s: want %v, got %v",
				wv.Type().Field(i).Name, wv.Field(i), gv.Field(i)))
		}
	}
	return out
}

// heldOutSeed is the second pinned seed: chosen after the benchmark was
// written and never used while tuning it.
const heldOutSeed = 9173

// pinned holds each simulation workload's outcome for the default seed (1)
// and the held-out seed. Any other seed is checked for self-consistency:
// every repetition must match the run's first simulation.
var pinned = map[string]map[int64]outcome{
	"scp-dynboth": {
		1:           {67072, 44267, 135168, 59062, 71, 31549, 6559, 15672682910550850941, 0.08108086386614431},
		heldOutSeed: {67072, 44267, 135168, 59062, 71, 31549, 6559, 830969057445114133, 0.08122933810000289},
	},
	"fwt-dyndms": {
		1:           {62976, 41564, 208896, 50838, 47579, 6948, 0, 5161442164928323975, 0},
		heldOutSeed: {62976, 41564, 208896, 50838, 47579, 6948, 0, 15808371739705745224, 0},
	},
	"gemm-baseline": {
		1:           {47616, 31426, 1521504, 10368, 1440, 1647, 0, 5325368604584667400, 0},
		heldOutSeed: {47616, 31426, 1521504, 10368, 1440, 1647, 0, 10164741350999464284, 0},
	},
}
