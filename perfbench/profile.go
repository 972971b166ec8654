package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// layers are the program's modules that per-layer self time is charged to.
// A sample goes to the innermost lazydram/internal/<pkg> frame on its stack;
// packages outside this list go to "other", the benchmark's own frames
// (package main) to "bench", and stacks with neither to "runtime".
var layers = []string{
	"core", "workloads", "icnt", "cache", "mc", "dram", "approx", "sim",
	"obs", "exp", "rundoc", "service", "runtime", "bench", "other",
}

const internalPrefix = "lazydram/internal/"

// layerOf charges one stack, given leaf first, to a layer.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			for _, l := range layers {
				if l == pkg {
					return pkg
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	return "runtime"
}

// sample is one stack from `go tool pprof -traces`: its CPU time and its
// frames, leaf first, with pprof's " (inline)" marks removed.
type sample struct {
	ns    int64
	stack []string
}

// parseTraces reads the text `go tool pprof -traces` prints: a header, then
// one block per sample between separator lines, the first frame line of a
// block carrying the sample's value ("10ms"). Label lines ("key:  value")
// are skipped.
func parseTraces(text string) ([]sample, error) {
	var out []sample
	var cur *sample
	body := false
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			body, cur = true, nil
			continue
		}
		if !body || len(line) < 13 || line[10] != ' ' {
			continue // header lines, or a label line ("      key:  value")
		}
		val, fn := strings.TrimSpace(line[:10]), strings.TrimSpace(line[10:])
		fn = strings.TrimSuffix(fn, " (inline)")
		if val != "" {
			ns, err := parseValue(val)
			if err != nil {
				return nil, err
			}
			out = append(out, sample{ns: ns})
			cur = &out[len(out)-1]
		}
		if cur == nil || fn == "" {
			continue
		}
		cur.stack = append(cur.stack, fn)
	}
	return out, sc.Err()
}

// parseValue turns a pprof time label ("10ms", "1.20s", "500us") into ns.
func parseValue(v string) (int64, error) {
	v = strings.ReplaceAll(v, "µ", "u")
	for _, u := range []struct {
		suffix string
		ns     float64
	}{{"ns", 1}, {"us", 1e3}, {"ms", 1e6}, {"s", 1e9}} {
		if num, ok := strings.CutSuffix(v, u.suffix); ok {
			f, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("pprof value %q: %w", v, err)
			}
			return int64(f * u.ns), nil
		}
	}
	return 0, fmt.Errorf("pprof value %q: unknown unit", v)
}

// attribution is the profile folded onto layers.
type attribution struct {
	totalNS int64
	selfNS  map[string]int64
	// coroNS is time with iter.Pull's coroutine machinery on the stack,
	// mallocNS time under runtime.mallocgc, collectNS time under
	// sim.(*GPU).collect (the work GPU.Finish does).
	coroNS, mallocNS, collectNS int64
}

func attribute(samples []sample) attribution {
	a := attribution{selfNS: map[string]int64{}}
	for _, s := range samples {
		a.totalNS += s.ns
		a.selfNS[layerOf(s.stack)] += s.ns
		var coro, malloc, collect bool
		for _, fn := range s.stack {
			switch {
			case strings.HasPrefix(fn, "iter.Pull"), fn == "runtime.coroswitch":
				coro = true
			case fn == "runtime.mallocgc":
				malloc = true
			case fn == "lazydram/internal/sim.(*GPU).collect":
				collect = true
			}
		}
		if coro {
			a.coroNS += s.ns
		}
		if malloc {
			a.mallocNS += s.ns
		}
		if collect {
			a.collectNS += s.ns
		}
	}
	return a
}

// frac is a layer's share of all sampled time.
func (a attribution) frac(layer string) float64 {
	return ratio(float64(a.selfNS[layer]), float64(a.totalNS))
}

// reconcileTolerance bounds how far the summed layer self time may stray
// from the process CPU time measured over the same window.
const reconcileTolerance = 0.15

// reconcile checks that the layer shares sum to one and that the summed
// self time accounts for the process's CPU time over the profiled window.
// It returns the relative CPU-time error.
func (a attribution) reconcile(cpu time.Duration) (float64, error) {
	var sum int64
	share := 0.0
	for _, l := range layers {
		sum += a.selfNS[l]
		share += a.frac(l)
	}
	if sum != a.totalNS || (a.totalNS > 0 && (share < 1-1e-9 || share > 1+1e-9)) {
		return 0, fmt.Errorf("reconcile: layer self time %d ns (shares %.6f) != total %d ns", sum, share, a.totalNS)
	}
	rel := ratio(float64(sum)-float64(cpu), float64(cpu))
	if rel < -reconcileTolerance || rel > reconcileTolerance {
		return rel, fmt.Errorf("reconcile: sampled %v vs process CPU %v (%.1f%%, tolerance %.0f%%)",
			time.Duration(sum), cpu, 100*rel, 100*reconcileTolerance)
	}
	return rel, nil
}

// profiler owns one CPU-profile window of the benchmark's own process plus
// the runtime counters read across it.
type profiler struct {
	path  string
	file  *os.File
	cpu0  time.Duration
	wall0 time.Time
	rt0   []metrics.Sample
}

var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startProfile(dir, name string) (*profiler, error) {
	p := &profiler{path: filepath.Join(dir, name+".cpu.pprof")}
	f, err := os.Create(p.path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	p.file = f
	p.cpu0, p.wall0, p.rt0 = processCPU(), time.Now(), readRuntime()
	return p, nil
}

// profileResult is one closed profile window.
type profileResult struct {
	attribution
	wall, cpu time.Duration
	// gcFrac is the GC's share of the runtime's CPU accounting over the
	// window; gcCycles the GC cycles completed in it.
	gcFrac   float64
	gcCycles uint64
}

// abort ends a window whose measurement is abandoned.
func (p *profiler) abort() {
	pprof.StopCPUProfile()
	p.file.Close()
}

// stop ends the window and folds the profile onto layers by reading it back
// with `go tool pprof -traces`.
func (p *profiler) stop() (*profileResult, error) {
	pprof.StopCPUProfile()
	r := &profileResult{wall: time.Since(p.wall0), cpu: processCPU() - p.cpu0}
	if err := p.file.Close(); err != nil {
		return nil, fmt.Errorf("write cpu profile: %w", err)
	}
	rt1 := readRuntime()
	r.gcFrac = ratio(rt1[0].Value.Float64()-p.rt0[0].Value.Float64(), rt1[1].Value.Float64()-p.rt0[1].Value.Float64())
	r.gcCycles = rt1[2].Value.Uint64() - p.rt0[2].Value.Uint64()
	out, err := exec.Command("go", "tool", "pprof", "-traces", p.path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	samples, err := parseTraces(string(out))
	if err != nil {
		return nil, err
	}
	r.attribution = attribute(samples)
	return r, nil
}
