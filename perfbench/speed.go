package main

import (
	"fmt"
	"math"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared, and how fast it runs the
// simulator drifts by 10–40% between stretches of tens of seconds as
// neighbours load the CPUs and the memory system. A calibrator measures
// that drift next to the work it times: the goroutine doing the work runs a
// fixed probe at regular points, and the host time of each stretch of work
// before a probe is reported in reference time, host time × (a factor from
// that probe). The probe has two timed halves, the two kinds of access the
// program makes: random read-modify-writes over a table larger than the
// last-level cache share, and lookups in a cache-resident map. Each half
// gives a speed, its reference duration ÷ its time. The probe shares no
// code with the program, so a change to the program moves the work's time
// but never the probe's. The table lives outside the Go heap so the heap
// metrics see only the program.
type calibrator struct {
	table []uint64
	m     map[uint64]uint64
	x     uint64
}

const (
	// refMem and refMap are the probe halves' reference durations: near
	// what they take on the 2-vCPU Xeon host the benchmark was written on,
	// so that reference time is close to that host's time.
	refMem     = 180 * time.Microsecond
	refMap     = 280 * time.Microsecond
	probeOps   = 6000
	probeWords = 1 << 20 // 8 MiB
	mapKeys    = 4096
)

// speeds is one probe's result.
type speeds struct{ mem, lookup float64 }

// sim is the factor for simulation time, which walks simulator state far
// larger than the caches: a geometric mean weighted mostly to the table
// half. On that host, over runs whose plain host throughput spread 10–44%,
// weighting the halves by their time (about 0.4 for the table) left 13–25%
// spread in reference time; weighting the table 0.8–0.9 left 3–6% on every
// sim workload.
func (s speeds) sim() float64 {
	const memWeight = 0.85
	return math.Pow(s.mem, memWeight) * math.Pow(s.lookup, 1-memWeight)
}

// short is the factor for short, cache-resident work — set-up, document
// encoding, cached lazyd requests — which tracks the map half: on the same
// runs it left encoding 3–8% spread, the table half 6–17%.
func (s speeds) short() float64 { return s.lookup }

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, probeWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration table: %w", err)
	}
	c := &calibrator{
		table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), probeWords),
		m:     make(map[uint64]uint64, mapKeys),
		x:     88172645463325252,
	}
	for i := range c.table {
		c.table[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	for k := uint64(0); k < mapKeys; k++ {
		c.m[k] = k
	}
	return c, nil
}

// probe runs the fixed probe once and returns the speeds that convert host
// time measured just before it into reference time.
func (c *calibrator) probe() speeds {
	t0 := time.Now()
	x, sum := c.x, uint64(0)
	for i := 0; i < probeOps; i++ {
		x = xorshift(x)
		sum += c.table[x%probeWords]
		c.table[(x>>20)%probeWords] += sum
	}
	t1 := time.Now()
	// The cache-resident half: map lookups and updates.
	for i := 0; i < probeOps; i++ {
		x = xorshift(x)
		c.m[x%mapKeys] += c.m[(x>>24)%mapKeys]
	}
	c.x = x
	return speeds{
		mem:    float64(refMem) / float64(t1.Sub(t0)),
		lookup: float64(refMap) / float64(time.Since(t1)),
	}
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// scale applies a factor to a duration.
func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }
