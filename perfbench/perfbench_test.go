package main

import (
	"strings"
	"testing"
)

func TestPercentileTailRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000
	}
	if v, beyond := percentile(xs, 99); v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	// 1000 samples: p99.9 has only one sample beyond it, p99 has ten.
	if p, v, ok := tail(xs); !ok || p != 99 || v != 990 {
		t.Fatalf("tail(1..1000) = p%v %v %v, want p99 990", p, v, ok)
	}
	// 100 samples: p99 leaves one beyond and is refused; p90 leaves ten.
	if p, v, ok := tail(xs[:100]); !ok || p != 90 || v != 90 {
		t.Fatalf("tail(1..100) = p%v %v %v, want p90 90", p, v, ok)
	}
	// 50 samples: not even p90 has ten beyond it.
	if p, _, ok := tail(xs[:50]); ok {
		t.Fatalf("tail(1..50) reported p%v; no tail has ten samples beyond it", p)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// cannedTraces is `go tool pprof -traces` output in its exact layout: a
// header, label lines, inlined frames, and values in several units.
const cannedTraces = `File: perfbench
Type: cpu
Time: Oct 16, 2026 at 7:00am (UTC)
Duration: 1.20s, Total samples = 1.13s (94.17%)
-----------+-------------------------------------------------------
      20ms   runtime.mapaccess1_fast64
             lazydram/internal/mc.(*bankQ).oldest (inline)
             lazydram/internal/mc.(*Controller).Tick
             lazydram/internal/sim.(*partition).memTick
             main.(*simRun).once
-----------+-------------------------------------------------------
       1s   lazydram/internal/core.(*SM).Tick
             lazydram/internal/sim.(*GPU).coreTick
-----------+-------------------------------------------------------
       job:  [lazyd]
      10ms   runtime.mallocgc
             lazydram/internal/memimage.(*Image).Store
             lazydram/internal/core.(*SM).Tick
-----------+-------------------------------------------------------
     500us   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   runtime.coroswitch
             iter.Pull[...].func1
             lazydram/internal/workloads.gemm.Program.func1
-----------+-------------------------------------------------------
      90ms   encoding/json.(*encodeState).marshal
             main.run
-----------+-------------------------------------------------------
`

func TestStackToLayerAttribution(t *testing.T) {
	samples, err := parseTraces(cannedTraces)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 6 {
		t.Fatalf("parsed %d samples, want 6", len(samples))
	}
	if got := samples[0].stack[1]; got != "lazydram/internal/mc.(*bankQ).oldest" {
		t.Fatalf("inline mark not stripped: %q", got)
	}
	a := attribute(samples)
	want := map[string]int64{
		"mc":        20e6,  // map access charged to its caller's layer
		"core":      1e9,   // plain self time
		"other":     10e6,  // innermost internal frame is memimage
		"runtime":   500e3, // no internal frame at all
		"workloads": 10e6,  // coroutine switch inside a warp program
		"bench":     90e6,  // the benchmark's own code
	}
	for layer, ns := range want {
		if a.selfNS[layer] != ns {
			t.Errorf("%s self = %d ns, want %d", layer, a.selfNS[layer], ns)
		}
	}
	if a.totalNS != 1130500000 {
		t.Errorf("total = %d ns", a.totalNS)
	}
	if a.coroNS != 10e6 || a.mallocNS != 10e6 {
		t.Errorf("coro %d ns, malloc %d ns; want 10ms each", a.coroNS, a.mallocNS)
	}
	if _, err := a.reconcile(1130 * 1e6); err != nil {
		t.Errorf("reconcile against matching CPU time: %v", err)
	}
	if _, err := a.reconcile(2000 * 1e6); err == nil {
		t.Error("reconcile accepted sampled time 43% short of CPU time")
	}
}

func TestReferenceCheckDetectsOneDriftedCounter(t *testing.T) {
	want := pinned["scp-dynboth"][1]
	if d := drift(want, want); len(d) != 0 {
		t.Fatalf("identical outcomes drift: %v", d)
	}
	got := want
	got.Activations++
	d := drift(want, got)
	if len(d) != 1 || !strings.HasPrefix(d[0], "Activations:") {
		t.Fatalf("one drifted counter reported as %v", d)
	}
	got = want
	got.AppError = 0.08108086386614432
	if d := drift(want, got); len(d) != 1 || !strings.HasPrefix(d[0], "AppError:") {
		t.Fatalf("a one-ulp AppError drift reported as %v", d)
	}
	for name, seeds := range pinned {
		if len(seeds) != 2 {
			t.Errorf("%s pins %d seeds, want the default and the held-out seed", name, len(seeds))
		}
		if _, ok := simWorkloads[name]; !ok {
			t.Errorf("pinned workload %s does not exist", name)
		}
	}
}
