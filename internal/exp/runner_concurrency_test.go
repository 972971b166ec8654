package exp_test

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lazydram/internal/exp"
	"lazydram/internal/mc"
	"lazydram/internal/obs"
	"lazydram/internal/sim"
)

// TestRunnerSingleflight drives one run key from many goroutines at once and
// checks the simulation executed exactly once: Variant.Mutate runs once per
// actual simulation, so its call count is the flight count, and every caller
// must get the same memoized *sim.Result.
func TestRunnerSingleflight(t *testing.T) {
	r := exp.NewRunner(exp.Options{Seed: 1, Workers: 4})
	var sims atomic.Int64
	v := exp.Variant{
		Tag:    "singleflight",
		Mutate: func(*sim.Config) { sims.Add(1) },
	}
	const callers = 16
	results := make([]*sim.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.Run("jmein", mc.Baseline, v)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	if n := sims.Load(); n != 1 {
		t.Fatalf("key simulated %d times, want exactly 1", n)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result pointer", i)
		}
	}
}

// TestRunnerPrefetchJoins checks a prefetched point and the later consuming
// Run call share one flight rather than simulating twice.
func TestRunnerPrefetchJoins(t *testing.T) {
	r := exp.NewRunner(exp.Options{Seed: 1, Workers: 2})
	var sims atomic.Int64
	v := exp.Variant{
		Tag:    "prefetch",
		Mutate: func(*sim.Config) { sims.Add(1) },
	}
	r.Prefetch(exp.Point{App: "jmein", Scheme: mc.Baseline, Variant: v})
	if _, err := r.Run("jmein", mc.Baseline, v); err != nil {
		t.Fatal(err)
	}
	// The consuming Run joined (or started) the flight; either way the key
	// must have simulated exactly once by the time Run returned.
	if n := sims.Load(); n != 1 {
		t.Fatalf("prefetched key simulated %d times, want exactly 1", n)
	}
}

// TestGoldenUnknownApp checks the workloads.New lookup error surfaces from
// Golden and Run instead of silently scoring against a nil golden output.
func TestGoldenUnknownApp(t *testing.T) {
	r := exp.NewRunner(exp.Options{Seed: 1})
	if _, err := r.Golden("no-such-app"); err == nil {
		t.Fatal("Golden accepted an unknown app")
	}
	if _, err := r.Run("no-such-app", mc.Baseline, exp.Variant{}); err == nil {
		t.Fatal("Run accepted an unknown app")
	}
}

// TestRunnerWorkerCountInvariance runs the same two-point set under one and
// four workers and requires identical statistics: concurrency must never
// change results.
func TestRunnerWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runners in -short mode")
	}
	apps := []string{"LPS", "jmein"}
	run := func(workers int) []*sim.Result {
		r := exp.NewRunner(exp.Options{Seed: 1, Apps: apps, Workers: workers})
		r.PrefetchSchemes(apps, mc.Baseline, mc.DynBoth)
		var out []*sim.Result
		for _, app := range apps {
			for _, s := range []mc.Scheme{mc.Baseline, mc.DynBoth} {
				res, err := r.Run(app, s, exp.Variant{})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, res)
			}
		}
		return out
	}
	one := run(1)
	four := run(4)
	for i := range one {
		if !reflect.DeepEqual(one[i].Run, four[i].Run) {
			t.Errorf("point %d: run statistics differ between 1 and 4 workers", i)
		}
	}
}

// TestRunnerPanicIsolation checks a panicking simulation fails its own run
// instead of the process: Run returns an error naming the panic, a caller
// that joined the in-flight run is released with the same error, and the
// error is not memoized — a later identical Run simulates again.
func TestRunnerPanicIsolation(t *testing.T) {
	rl := obs.NewRunLog(obs.RunLogOptions{})
	r := exp.NewRunner(exp.Options{Seed: 1, Workers: 2, RunLog: rl})
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	v := exp.Variant{
		Tag: "panics",
		Mutate: func(*sim.Config) {
			if calls.Add(1) == 1 {
				close(entered)
				<-release
			}
			panic("mutate exploded")
		},
	}
	errs := make(chan error, 2)
	run := func() {
		_, err := r.Run("jmein", mc.Baseline, v)
		errs <- err
	}
	go run()
	<-entered
	go run()
	// Hold the first flight until the second caller has joined it.
	deadline := time.Now().Add(10 * time.Second)
	for rl.Summary().Deduped < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second caller never joined the in-flight run")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "mutate exploded") {
				t.Fatalf("caller %d: err = %v, want the panic as an error", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("caller %d never returned", i)
		}
	}
	if _, err := r.Run("jmein", mc.Baseline, v); err == nil {
		t.Fatal("retry succeeded; Mutate panics on every call")
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("Mutate ran %d times, want 2: the retry must simulate again", n)
	}
}
