// Benchmarks: one testing.B benchmark per table/figure of the paper, each
// regenerating its experiment through the internal/exp harness. Benchmarks
// use a reduced application subset so `go test -bench=.` completes in
// minutes; `cmd/experiments` runs the full versions.
//
// Reported custom metrics:
//
//	act-reduction-%   mean activation reduction the scheme achieved
//	rowE-reduction-%  mean row-energy reduction (Fig. 12/15 benches)
//	ipc-ratio         mean IPC versus baseline
//	core-cycles/s     simulated core cycles per second of wall time
package main

import (
	"io"
	"runtime"
	"slices"
	"testing"
	"time"

	"lazydram/internal/exp"
	"lazydram/internal/mc"
	"lazydram/internal/obs"
	"lazydram/internal/sim"
	"lazydram/internal/workloads"
)

// benchApps is a small cross-section: one app per paper group.
var benchApps = []string{"SCP", "MVT", "laplacian", "FWT"}

func benchRunner() *exp.Runner {
	return exp.NewRunner(exp.Options{Seed: 1, Apps: benchApps, Quick: true})
}

// runExperiment executes one experiment end to end, discarding its text.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		r := benchRunner() // fresh: do not let memoization trivialize iterations
		if err := e.Run(r, io.Discard, b.TempDir()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Config(b *testing.B)     { runExperiment(b, "table1") }
func BenchmarkFig2QueueSweep(b *testing.B)   { runExperiment(b, "fig2") }
func BenchmarkFig5RBLBuckets(b *testing.B)   { runExperiment(b, "fig5") }
func BenchmarkFig6Cumulative(b *testing.B)   { runExperiment(b, "fig6") }
func BenchmarkFig7CaseStudies(b *testing.B)  { runExperiment(b, "fig7") }
func BenchmarkFig8Scripted(b *testing.B)     { runExperiment(b, "fig8") }
func BenchmarkFig11ThRBLSweep(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkFig14ImageOutput(b *testing.B) { runExperiment(b, "fig14") }
func BenchmarkTable2Classify(b *testing.B)   { runExperiment(b, "table2") }
func BenchmarkEnergyProjection(b *testing.B) { runExperiment(b, "energy") }

// The wide sweeps (Figs. 4, 10, 12, 13, 15) are benchmarked on their core
// measurement rather than the full 20-app grid, and report the paper's
// headline number as a custom metric.

func BenchmarkFig4DelaySweep(b *testing.B) {
	var actRed, ipcRatio float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		actRed, ipcRatio = 0, 0
		for _, app := range benchApps {
			base, err := r.Baseline(app)
			if err != nil {
				b.Fatal(err)
			}
			res, err := r.DMS(app, 1024)
			if err != nil {
				b.Fatal(err)
			}
			actRed += 1 - float64(res.Run.Mem.Activations)/float64(base.Run.Mem.Activations)
			ipcRatio += res.Run.IPC() / base.Run.IPC()
		}
		actRed /= float64(len(benchApps))
		ipcRatio /= float64(len(benchApps))
	}
	b.ReportMetric(100*actRed, "act-reduction-%")
	b.ReportMetric(ipcRatio, "ipc-ratio")
}

func BenchmarkFig10Correlation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		for _, app := range benchApps {
			if _, err := r.Baseline(app); err != nil {
				b.Fatal(err)
			}
			for _, d := range []int{128, 512} {
				if _, err := r.DMS(app, d); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkFig12AllSchemes(b *testing.B) {
	schemes := []mc.Scheme{mc.StaticDMS, mc.DynDMS, mc.StaticAMS, mc.DynAMS, mc.StaticBoth, mc.DynBoth}
	apps := []string{"SCP", "MVT", "laplacian"} // groups 1-3 only
	var rowERed float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		rowERed = 0
		n := 0
		for _, app := range apps {
			base, err := r.Baseline(app)
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range schemes {
				res, err := r.Run(app, s, exp.Variant{})
				if err != nil {
					b.Fatal(err)
				}
				if s.DMS == mc.Dyn && s.AMS == mc.Dyn {
					rowERed += 1 - res.Run.RowEnergy/base.Run.RowEnergy
					n++
				}
			}
		}
		rowERed /= float64(n)
	}
	b.ReportMetric(100*rowERed, "rowE-reduction-%")
}

func BenchmarkFig13QueueSweepDMS(b *testing.B) {
	s := mc.StaticDMS
	s.StaticDelay = 2048
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		for _, app := range []string{"SCP", "laplacian"} {
			for _, q := range []int{32, 128} {
				if _, err := r.Run(app, s, exp.Variant{QueueSize: q}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkFig15DelayOnly(b *testing.B) {
	var rowERed float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		base, err := r.Baseline("FWT") // a group-4 (low error tolerance) app
		if err != nil {
			b.Fatal(err)
		}
		res, err := r.Run("FWT", mc.DynDMS, exp.Variant{})
		if err != nil {
			b.Fatal(err)
		}
		rowERed = 1 - res.Run.RowEnergy/base.Run.RowEnergy
	}
	b.ReportMetric(100*rowERed, "rowE-reduction-%")
}

// ---- ablation benchmarks (design choices called out in DESIGN.md) -------

// BenchmarkAblationBlockDispatch compares thread-block dispatch (8 warps per
// block per SM) against warp striping: block dispatch preserves the spatial
// locality that gives the baseline its realistic row-buffer behaviour.
func BenchmarkAblationBlockDispatch(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		blocked, err := r.Baseline("laplacian")
		if err != nil {
			b.Fatal(err)
		}
		striped, err := r.Run("laplacian", mc.Baseline, exp.Variant{
			Tag:    "striped",
			Mutate: func(c *sim.Config) { c.WarpsPerBlock = 1 },
		})
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(striped.Run.Mem.Activations) / float64(blocked.Run.Mem.Activations)
	}
	b.ReportMetric(ratio, "striped/blocked-acts")
}

// BenchmarkAblationProfileWindow compares the paper's 4096-cycle Dyn-DMS
// profiling window against the scaled 1024-cycle default on these
// scaled-down inputs.
func BenchmarkAblationProfileWindow(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		base, err := r.Baseline("SCP")
		if err != nil {
			b.Fatal(err)
		}
		run := func(window uint64, tag string) float64 {
			res, err := r.Run("SCP", mc.DynDMS, exp.Variant{
				Tag:    tag,
				Mutate: func(c *sim.Config) { c.MC.ProfileWindow = window },
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.Run.RowEnergy / base.Run.RowEnergy
		}
		scaled := run(mc.DefaultProfileWindow, "win1024")
		paper := run(mc.PaperProfileWindow, "win4096")
		ratio = scaled / paper
	}
	b.ReportMetric(ratio, "rowE-1024/4096")
}

// BenchmarkAblationVPRadius varies the value predictor's set-search radius:
// a wider search finds closer addresses and lowers application error.
func BenchmarkAblationVPRadius(b *testing.B) {
	var err0, err8 float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		run := func(radius int, tag string) float64 {
			res, err := r.Run("laplacian", mc.StaticAMS, exp.Variant{
				Tag:    tag,
				Mutate: func(c *sim.Config) { c.VP.SetRadius = radius },
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.Run.AppError
		}
		err0 = run(0, "vp0")
		err8 = run(8, "vp8")
	}
	b.ReportMetric(100*err0, "app-error-%-radius0")
	b.ReportMetric(100*err8, "app-error-%-radius8")
}

// BenchmarkParallelSweep measures the concurrent Runner on the Fig. 12
// shape (3 apps x 7 schemes): each iteration executes the identical point set
// with one worker and with GOMAXPROCS workers, and reports the wall-clock
// speedup. On a single-core runner the speedup metric is ~1.0 by
// construction; the number is only meaningful on multi-core hardware.
func BenchmarkParallelSweep(b *testing.B) {
	apps := []string{"SCP", "MVT", "laplacian"} // groups 1-3 only
	schemes := []mc.Scheme{mc.Baseline, mc.StaticDMS, mc.DynDMS, mc.StaticAMS,
		mc.DynAMS, mc.StaticBoth, mc.DynBoth}
	sweep := func(workers int) time.Duration {
		start := time.Now()
		r := exp.NewRunner(exp.Options{Seed: 1, Apps: apps, Quick: true, Workers: workers})
		r.PrefetchSchemes(apps, schemes...)
		for _, app := range apps {
			for _, s := range schemes {
				if _, err := r.Run(app, s, exp.Variant{}); err != nil {
					b.Fatal(err)
				}
			}
		}
		return time.Since(start)
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		serial := sweep(1)
		parallel := sweep(runtime.GOMAXPROCS(0))
		speedup = serial.Seconds() / parallel.Seconds()
	}
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkSimulatorThroughput measures raw simulation speed in core cycles
// per second of wall time, and heap allocations per run, on SCP under
// Dyn-Both with a fixed seed. Only the simulator is timed — sim.Prepare, the
// Step loop and Finish — not kernel construction or a golden functional run,
// so the metric tracks the simulator's own performance.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k, err := workloads.New("SCP")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		g := sim.Prepare(k, sim.DefaultConfig(), mc.DynBoth, 1)
		for {
			done, err := g.Step()
			if err != nil {
				g.Close()
				b.Fatal(err)
			}
			if done {
				break
			}
		}
		cycles += g.Finish().Run.CoreCycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "core-cycles/s")
}

// timedRun prepares one SCP run under Dyn-Both with the given
// observability options with the timer stopped, then times its Run alone:
// whether Prepare pays SCP's Setup depends on whether the collector has
// dropped the memoized input since the last run, which is noise to every
// comparison made here.
func timedRun(b *testing.B, o obs.Options) time.Duration {
	b.Helper()
	b.StopTimer()
	k, err := workloads.New("SCP")
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Obs = o
	g := sim.Prepare(k, cfg, mc.DynBoth, 1)
	b.StartTimer()
	start := time.Now()
	if _, err := g.Run(); err != nil {
		b.Fatal(err)
	}
	return time.Since(start)
}

// benchTelemetry measures full SCP runs under Dyn-Both with the given
// observability options. BenchmarkTelemetryOff against BenchmarkTelemetryOn
// quantifies the cost of the nil-check hooks (off must stay within 2% of the
// pre-observability simulator) and of full tracing respectively.
func benchTelemetry(b *testing.B, o obs.Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		timedRun(b, o)
	}
}

func BenchmarkTelemetryOff(b *testing.B) { benchTelemetry(b, obs.Options{}) }

func BenchmarkTelemetryOn(b *testing.B) {
	benchTelemetry(b, obs.Options{
		Latency:       true,
		SampleEvery:   1024,
		TraceCapacity: 1 << 16,
		AuditCapacity: 1 << 14,
		Quality:       true,
	})
}

// BenchmarkTelemetryAuditQuality isolates the decision-audit and
// quality-scoring hooks added on top of the PR-1 telemetry; compare against
// BenchmarkTelemetryOff to verify they stay under the 2% overhead budget.
func BenchmarkTelemetryAuditQuality(b *testing.B) {
	benchTelemetry(b, obs.Options{AuditCapacity: 1 << 14, Quality: true})
}

// BenchmarkDigestOff / BenchmarkDigestOn bracket the state-digest flight
// recorder: On walks every architectural component each DefaultDigestEvery
// mem cycles and folds the rolling traffic digest into every fill and
// writeback, and must stay within the same 2% budget of Off.
func BenchmarkDigestOff(b *testing.B) { benchTelemetry(b, obs.Options{}) }

func BenchmarkDigestOn(b *testing.B) {
	benchTelemetry(b, obs.Options{DigestEvery: obs.DefaultDigestEvery})
}

// BenchmarkCensusOverhead brackets the cycle census: On runs the
// stall-attribution and bank-residency classification in every controller
// tick plus the partition-cycle census, Off only the disabled nil-check
// hooks. Each iteration times one run of each, back to back in alternating
// order, and the benchmark reports the median of the per-pair On/Off ratios
// as census-on/off. Pairing run by run cancels the host drift that moves
// separately timed batches.
func BenchmarkCensusOverhead(b *testing.B) {
	sides := [2]obs.Options{{}, {Census: true}}
	var ratios []float64
	for i := 0; i < b.N; i++ {
		var wall [2]time.Duration
		for j := range sides {
			side := (i + j) % 2 // odd iterations run On first
			wall[side] = timedRun(b, sides[side])
		}
		ratios = append(ratios, wall[1].Seconds()/wall[0].Seconds())
	}
	b.Logf("per-pair census On/Off: %.3f", ratios)
	slices.Sort(ratios)
	b.ReportMetric(ratios[len(ratios)/2], "census-on/off")
}
