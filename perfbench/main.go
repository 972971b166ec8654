// Command perfbench is the repository's benchmark: it measures the
// simulator and the lazyd service from outside, through their public entry
// points, on four named workloads, and checks that their outputs are
// correct. See README.md for the metrics, the workloads and how to read a
// traced run.
//
// Usage (from the repository root; run.sh builds it first):
//
//	perfbench --workload scp-dynboth --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 reports the per-layer metrics from a CPU-profiled,
// census-on run and writes the benchmark's spans as a Chrome trace.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"lazydram/internal/buildinfo"
)

// env is one benchmark invocation.
type env struct {
	workload string
	seed     int64
	dur      time.Duration
	traced   bool
	spans    *spanLog // nil unless traced
}

// artifact names this run's files in the output directory.
func (e *env) artifact() string { return fmt.Sprintf("%s-s%d", e.workload, e.seed) }

const maxProblems = 5

// outDir, relative to the directory the benchmark runs in, receives the
// traced run's CPU profile and span trace.
var outDir = filepath.Join(".bench_build", "out")

type metric struct {
	name, unit string
	value      float64
}

// tally counts checked operations and keeps the first few failures.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.problems) < maxProblems {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// add folds another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, p := range o.problems {
		if len(t.problems) < maxProblems {
			t.problems = append(t.problems, p)
		}
	}
}

// report is what one run measured.
type report struct {
	tally
	// metrics go to the JSON result; human lines only to the text above it.
	metrics, extra []metric
	notes          []string
}

func (r *report) metric(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) human(name, unit string, v float64) {
	r.extra = append(r.extra, metric{name, unit, v})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// endToEnd records the end-to-end metrics every workload reports, plus the
// host's resident-set high-water mark (printed, not gated: it follows the
// garbage collector's pacing more than the program). resultMS is the time
// from asking for a simulation to holding its document, docUS the time to
// obtain a finished simulation's document.
func (r *report) endToEnd(setupS, cyclesPerS, resultMS, docUS, bytesK, allocsK, heapMB float64) {
	r.metric("setup_s", "s", setupS)
	r.metric("core_cycles_per_s", "1/s", cyclesPerS)
	r.metric("result_p50_ms", "ms", resultMS)
	r.metric("doc_p50_us", "us", docUS)
	r.metric("alloc_bytes_per_kcycle", "B", bytesK)
	r.metric("allocs_per_kcycle", "count", allocsK)
	r.metric("live_heap_mb", "MB", heapMB)
	r.human("peak_rss_mb", "MB", peakRSSMB())
}

// liveHeap forces a garbage collection and returns the bytes still live.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// fingerprint identifies the machine and the code a result came from, so
// results from different boxes are never compared silently.
type fingerprint struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
}

func machine(e *env, seconds, trace int) fingerprint {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	b := buildinfo.Get()
	rev := b.Revision
	if rev == "" {
		rev = "unknown"
	} else if b.Dirty {
		rev += "-dirty"
	}
	return fingerprint{
		Workload: e.workload, Seed: e.seed, Seconds: seconds, Trace: trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: cpu, GoVersion: runtime.Version(), Revision: rev,
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed (>= 0)")
	secs := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a profiled run")
	flag.Parse()
	if *seed < 0 || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seed >= 0, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	e := &env{workload: *workload, seed: *seed, dur: time.Duration(*secs) * time.Second, traced: *trace == 1}
	if err := run(e, machine(e, *secs, *trace)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := []string{"lazyd-mixed"}
	for n := range simWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(e *env, fp fingerprint) error {
	var rep *report
	var err error
	if e.traced {
		e.spans = newSpanLog()
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	raw, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", raw)
	if w, ok := simWorkloads[e.workload]; ok {
		rep, err = runSim(e, w)
	} else if e.workload == "lazyd-mixed" {
		rep, err = runLazyd(e)
	} else {
		return fmt.Errorf("unknown workload %q (have %s)", e.workload, strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		return err
	}
	if e.traced {
		path := filepath.Join(outDir, e.artifact()+".trace.json")
		if err := e.spans.write(path, fp); err != nil {
			return err
		}
		rep.note("spans: %s", path)
	}

	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range append(rep.metrics, rep.extra...) {
		fmt.Printf("%-26s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("%-26s %14.6g (%d/%d)\n", "error_rate", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	for _, p := range rep.problems {
		fmt.Println("FAIL", p)
	}
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	res.Correct = rep.failed == 0 && rep.attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
