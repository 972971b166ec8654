package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lazydram/internal/rundoc"
)

const sampleReport = `{
	"meta": {"build": {"go_version": "go1.23.0", "revision": "abc123", "dirty": true}},
	"app": "SCP", "scheme": "Dyn-DMS+Dyn-AMS", "seed": 1,
	"ipc": 2.0153, "bwutil": 0.42, "activations": 31549,
	"row_energy_nj": 709852.5, "wall_ms": 987.6,
	"energy_by_channel": [
		{"channel": 0, "row_nj": 100, "access_nj": 50, "background_nj": 25, "total_nj": 175,
		 "banks": [{"bank": 0, "row_nj": 100, "access_nj": 50}]}
	],
	"hottest_banks": [{"channel": 0, "bank": 0, "row_nj": 100}],
	"telemetry": {
		"stages": [
			{"stage": "mc.queue", "count": 10, "mean": 5.5, "p50": 5, "p90": 9, "p99": 10, "max": 12}
		],
		"series": [{"mem_cycle": 1024}],
		"audit": {
			"total": 120, "dms_delay_holds": 70, "dms_delay_expiries": 10,
			"ams_drops": 25, "ams_skips": 15,
			"reasons": [
				{"unit": "dms", "kind": "delay", "reason": "delay-hold", "count": 70},
				{"unit": "ams", "kind": "drop", "reason": "drop", "count": 25},
				{"unit": "ams", "kind": "skip", "reason": "row-open", "count": 15}
			],
			"adapt": [{"cycle": 1024, "channel": 0, "unit": "ams", "th_rbl": 7}]
		},
		"quality": {
			"lines": 25, "words": 800, "mean_abs_error": 0.5,
			"mean_rel_error": 0.01, "rel_p50": 0.001, "rel_p99": 0.2,
			"max_rel_error": 1.5,
			"worst": [{"addr": 4096, "cycle": 7, "mean_rel": 1.5}]
		},
		"digest": {
			"every": 4096, "intervals": 25,
			"final": "0x00000001000186a0", "chain": "0xdeadbeef00000001",
			"final_hi": 1, "final_lo": 100000,
			"chain_hi": 3735928559, "chain_lo": 1
		}
	}
}`

// flatten runs the schema flattener lazycmp gates with on a literal
// document.
func flatten(t *testing.T, doc string) (map[string]float64, []string) {
	t.Helper()
	m, skipped, err := rundoc.Flatten([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return m, skipped
}

func TestFlatten(t *testing.T) {
	m, skipped := flatten(t, sampleReport)
	if len(skipped) != 0 {
		t.Fatalf("unexpected skipped metrics: %v", skipped)
	}

	for name, want := range map[string]float64{
		"ipc":                                          2.0153,
		"activations":                                  31549,
		"row_energy_nj":                                709852.5,
		"energy_by_channel.0.row_nj":                   100,
		"energy_by_channel.0.total_nj":                 175,
		"energy_by_channel.0.banks.0.access_nj":        50,
		"telemetry.stages.mc.queue.p99":                10,
		"telemetry.stages.mc.queue.mean":               5.5,
		"telemetry.audit.total":                        120,
		"telemetry.audit.dms_delay_holds":              70,
		"telemetry.audit.ams_drops":                    25,
		"telemetry.audit.reasons.dms.delay-hold.count": 70,
		"telemetry.audit.reasons.ams.drop.count":       25,
		"telemetry.audit.reasons.ams.row-open.count":   15,
		"telemetry.audit.adapt.1024.0.ams.th_rbl":      7,
		"telemetry.quality.lines":                      25,
		"telemetry.quality.mean_rel_error":             0.01,
		"telemetry.quality.rel_p99":                    0.2,
		"telemetry.quality.worst.4096.7.mean_rel":      1.5,
		"telemetry.digest.every":                       4096,
		"telemetry.digest.intervals":                   25,
		"telemetry.digest.final_hi":                    1,
		"telemetry.digest.final_lo":                    100000,
		"telemetry.digest.chain_hi":                    3735928559,
		"telemetry.digest.chain_lo":                    1,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("flatten[%q] = %v (present=%v), want %v", name, got, ok, want)
		}
	}
	// Identity, noise, provenance, and derived views must stay out of the
	// gate; the hex digest strings are identity, not numbers, and stay out
	// too.
	for _, name := range []string{"seed", "wall_ms", "app", "scheme",
		"telemetry.digest.final", "telemetry.digest.chain"} {
		if _, ok := m[name]; ok {
			t.Errorf("flatten leaked %q into the comparable set", name)
		}
	}
	for name := range m {
		if strings.HasPrefix(name, "meta.") || strings.HasPrefix(name, "hottest_banks.") {
			t.Errorf("flatten leaked %q into the comparable set", name)
		}
	}
}

func TestParseThresholdsAndResolve(t *testing.T) {
	rules, err := parseThresholds("ipc=0.02, stage.*=0.10,stage.mc.queue.p99=0.5")
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"ipc":                0.02, // exact
		"stage.mc.queue.p50": 0.10, // prefix
		"stage.mc.queue.p99": 0.5,  // exact beats prefix
		"activations":        0,    // default
	} {
		if got := resolve(name, rules, 0); got != want {
			t.Errorf("resolve(%q) = %v, want %v", name, got, want)
		}
	}
	for _, bad := range []string{"ipc", "ipc=x", "ipc=-1"} {
		if _, err := parseThresholds(bad); err == nil {
			t.Errorf("parseThresholds(%q) accepted", bad)
		}
	}
}

func TestCompare(t *testing.T) {
	base := map[string]float64{"ipc": 2.0, "acts": 100, "gone": 5, "zero": 0}
	cand := map[string]float64{"ipc": 2.1, "acts": 100, "new": 7, "zero": 3}

	// Default: exact match required, every delta fails.
	doc := compare(base, cand, cmpConfig{})
	if doc.Compared != 3 || doc.Unmatched != 2 {
		t.Fatalf("compared=%d unmatched=%d, want 3/2", doc.Compared, doc.Unmatched)
	}
	byName := map[string]MetricDelta{}
	for _, d := range doc.Metrics {
		byName[d.Name] = d
	}
	if byName["ipc"].Status != "fail" || byName["acts"].Status != "ok" {
		t.Fatalf("statuses: ipc=%s acts=%s", byName["ipc"].Status, byName["acts"].Status)
	}
	if byName["gone"].Status != "baseline-only" || byName["new"].Status != "candidate-only" {
		t.Fatalf("unmatched statuses wrong: %+v %+v", byName["gone"], byName["new"])
	}
	// A change from exactly zero is an infinite relative delta.
	if !math.IsInf(byName["zero"].Rel, 1) || byName["zero"].Status != "fail" {
		t.Fatalf("zero-baseline delta: %+v", byName["zero"])
	}

	// A 5% allowance passes the 5% IPC bump but the zero-jump still fails.
	doc = compare(base, cand, cmpConfig{maxRel: 0.051})
	if doc.Failed != 1 {
		t.Fatalf("with maxRel=0.051 failed=%d, want only the zero metric", doc.Failed)
	}
	// ... unless min-abs absorbs it as jitter.
	doc = compare(base, cand, cmpConfig{maxRel: 0.051, minAbs: 3})
	if doc.Failed != 0 {
		t.Fatalf("min-abs did not absorb the small absolute delta: failed=%d", doc.Failed)
	}
	// Per-metric override beats the default.
	doc = compare(base, cand, cmpConfig{overrides: []thresholdRule{{pattern: "ipc", value: 0.1}, {pattern: "zero", value: math.Inf(1)}}})
	if doc.Failed != 0 {
		t.Fatalf("overrides not applied: failed=%d", doc.Failed)
	}
}

func writeDoc(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	self := writeDoc(t, dir, "a.json", sampleReport)
	bumped := strings.Replace(sampleReport, `"ipc": 2.0153`, `"ipc": 2.5`, 1)
	other := writeDoc(t, dir, "b.json", bumped)
	extra := writeDoc(t, dir, "c.json",
		strings.Replace(sampleReport, `"bwutil": 0.42,`, ``, 1))

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"self-diff", []string{self, self}, 0},
		{"regression", []string{self, other}, 1},
		{"regression-within-threshold", []string{"-thresholds", "ipc=0.5", self, other}, 0},
		{"report-only", []string{"-report-only", self, other}, 0},
		{"missing-metric-tolerated", []string{self, extra}, 0},
		{"missing-metric-fail-on-new", []string{"-fail-on-new", self, extra}, 1},
		{"bad-threshold", []string{"-thresholds", "x", self, self}, 2},
		{"missing-file", []string{self, filepath.Join(dir, "nope.json")}, 2},
		{"usage", []string{self}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errBuf bytes.Buffer
			if got := run(tc.args, &out, &errBuf); got != tc.want {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s",
					got, tc.want, out.String(), errBuf.String())
			}
		})
	}

	// Self-diff must report every metric compared with zero deltas, and the
	// -json delta document must agree.
	var out, errBuf bytes.Buffer
	deltaPath := filepath.Join(dir, "delta.json")
	if got := run([]string{"-json", deltaPath, self, self}, &out, &errBuf); got != 0 {
		t.Fatalf("self-diff exit %d: %s", got, errBuf.String())
	}
	if !strings.Contains(out.String(), "0 failed, 0 unmatched") {
		t.Fatalf("self-diff table:\n%s", out.String())
	}
	raw, err := os.ReadFile(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc DeltaDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("delta document invalid: %v", err)
	}
	if doc.Failed != 0 || doc.Unmatched != 0 || doc.Compared == 0 {
		t.Fatalf("delta doc: %+v", doc)
	}
	for _, m := range doc.Metrics {
		if m.Delta != 0 {
			t.Fatalf("self-diff has nonzero delta for %s: %v", m.Name, m.Delta)
		}
	}
}

// TestFlattenNonFinite: NaN/Inf values — raw or string-encoded as expvar and
// delta documents emit them — must be diverted to the skip list, never into
// the comparable set, while finite string-encoded numbers are parsed.
func TestFlattenNonFinite(t *testing.T) {
	m, skipped := flatten(t, `{"app_error": "NaN", "bwutil": "+Inf", "ipc": "-Inf",
		"reads": "123", "scheme": "Baseline"}`)
	if got := len(skipped); got != 3 {
		t.Fatalf("skipped = %v, want 3 entries", skipped)
	}
	for _, name := range []string{"app_error", "bwutil", "ipc"} {
		if _, ok := m[name]; ok {
			t.Errorf("non-finite %q entered the comparable set", name)
		}
	}
	if got := m["reads"]; got != 123 {
		t.Errorf("string-encoded finite number: got %v, want 123", got)
	}
	if _, ok := m["scheme"]; ok {
		t.Error("non-numeric string leaked into the comparable set")
	}
}

// TestCompareSkipsNonFinite: a NaN handed straight to compare must surface
// as a skipped row, not a silent pass (NaN comparisons are always false, so
// the threshold check would otherwise report "ok").
func TestCompareSkipsNonFinite(t *testing.T) {
	base := map[string]float64{"x": math.NaN(), "y": 1, "z": math.Inf(1)}
	cand := map[string]float64{"x": 5, "y": 1, "z": math.Inf(1)}
	doc := compare(base, cand, cmpConfig{})
	if doc.Skipped != 2 || doc.Compared != 1 || doc.Failed != 0 {
		t.Fatalf("skipped=%d compared=%d failed=%d, want 2/1/0",
			doc.Skipped, doc.Compared, doc.Failed)
	}
	for _, d := range doc.Metrics {
		if (d.Name == "x" || d.Name == "z") && d.Status != "skipped" {
			t.Errorf("%s status = %s, want skipped", d.Name, d.Status)
		}
	}
}

// TestRunWarnsOnNonFinite: end-to-end, a NaN metric is excluded with a
// warning on stderr and does not flip the exit status either way.
func TestRunWarnsOnNonFinite(t *testing.T) {
	dir := t.TempDir()
	nan := strings.Replace(sampleReport, `"ipc": 2.0153`, `"ipc": "NaN"`, 1)
	a := writeDoc(t, dir, "nan-a.json", nan)
	b := writeDoc(t, dir, "nan-b.json", nan)
	var out, errBuf bytes.Buffer
	if got := run([]string{a, b}, &out, &errBuf); got != 0 {
		t.Fatalf("exit %d, want 0\nstderr:\n%s", got, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "skipping non-finite metric ipc") {
		t.Fatalf("missing warning, stderr:\n%s", errBuf.String())
	}
	if strings.Contains(out.String(), "\nipc ") {
		t.Fatalf("ipc still in the table:\n%s", out.String())
	}
}

// TestMetricDeltaInfMarshal: ±Inf relative deltas must encode as strings so
// the delta document stays valid JSON.
func TestMetricDeltaInfMarshal(t *testing.T) {
	raw, err := json.Marshal(MetricDelta{Name: "x", Rel: math.Inf(1), Status: "fail"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"rel":"+Inf"`) {
		t.Fatalf("Inf rel encoding: %s", raw)
	}
}

const sampleSweepDoc = `{
	"seed": 1,
	"runs": [
		{"app": "jmein", "scheme": "Baseline", "ipc": 2.8, "activations": 11494,
		 "row_energy_nj": 258615, "app_error": 0, "coverage": 0},
		{"app": "jmein", "scheme": "Static-AMS", "ipc": 3.11, "activations": 9941,
		 "row_energy_nj": 223672.5, "app_error": 0.092, "coverage": 0.1,
		 "wall_seconds": 0.29, "cycles_per_sec": 41379.3}
	],
	"sweep": {
		"runs": 4, "executed": 2, "deduped": 2, "errors": 0,
		"prefetch_hits": 1, "events": 14, "workers": 2, "sim_cycles": 24000,
		"timing": {
			"wall_seconds": 0.61, "run_mean_seconds": 0.3,
			"run_p50_seconds": 0.29, "run_p99_seconds": 0.31,
			"worker_occupancy": 0.95, "cycles_per_sec": 39344.2,
			"alloc_bytes": 1048576, "mallocs": 4242,
			"queue_wait_hist": [{"lo": 0, "hi": 1, "count": 2}]
		},
		"spans": [{"id": 0, "app": "jmein", "scheme": "Baseline", "state": "done"}]
	}
}`

// TestFlattenSweepDoc: a lazysim -sweep -json document flattens to per-run
// rows keyed by identity plus the sweep counts, with every wall-clock value
// and the non-metric parts (workers, spans) left out.
func TestFlattenSweepDoc(t *testing.T) {
	m, skipped := flatten(t, sampleSweepDoc)
	if len(skipped) != 0 {
		t.Fatalf("unexpected skipped metrics: %v", skipped)
	}
	for name, want := range map[string]float64{
		"runs.jmein.Baseline.ipc":             2.8,
		"runs.jmein.Baseline.activations":     11494,
		"runs.jmein.Static-AMS.row_energy_nj": 223672.5,
		"runs.jmein.Static-AMS.app_error":     0.092,
		"runs.jmein.Static-AMS.coverage":      0.1,
		"sweep.runs":                          4,
		"sweep.executed":                      2,
		"sweep.deduped":                       2,
		"sweep.errors":                        0,
		"sweep.events":                        14,
		"sweep.sim_cycles":                    24000,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("flatten[%q] = %v (present=%v), want %v", name, got, ok, want)
		}
	}
	// The wall-clock values (run rows' wall_seconds and cycles_per_sec, the
	// sweep.timing block), the scheduling-dependent prefetch_hits, the
	// workers knob and the spans are tagged gate:"-" in the schema, so no
	// -ignore rule is needed for them.
	for _, name := range []string{"runs.jmein.Static-AMS.wall_seconds",
		"runs.jmein.Static-AMS.cycles_per_sec", "sweep.prefetch_hits",
		"sweep.workers", "seed"} {
		if _, ok := m[name]; ok {
			t.Errorf("flatten admitted %q", name)
		}
	}
	for name := range m {
		if strings.Contains(name, "seconds") || strings.HasPrefix(name, "sweep.timing.") ||
			strings.HasPrefix(name, "sweep.spans.") {
			t.Errorf("flatten admitted wall-clock metric %q", name)
		}
	}
}

// TestIgnore: -ignore must fully exclude matching metrics — including
// one-sided ones that would otherwise fail under -fail-on-new, and
// zero-baseline changes whose relative delta is infinite and therefore
// beyond any finite threshold.
func TestIgnore(t *testing.T) {
	if !ignoreMatch("sweep.timing.wall_seconds", []string{"sweep.timing.*"}) {
		t.Fatal("prefix pattern did not match")
	}
	if ignoreMatch("sweep.runs", []string{"sweep.timing.*"}) {
		t.Fatal("prefix pattern overmatched")
	}
	if !ignoreMatch("sweep.prefetch_hits", []string{"sweep.prefetch_hits"}) {
		t.Fatal("exact pattern did not match")
	}

	dir := t.TempDir()
	a := writeDoc(t, dir, "sweep-a.json", sampleSweepDoc)
	// Candidate: a changed count, a key changing from 0, and a key present
	// on one side only; every other count identical.
	b := writeDoc(t, dir, "sweep-b.json", strings.NewReplacer(
		`"events": 14`, `"events": 15`,
		`"errors": 0`, `"errors": 3`,
		`"deduped": 2, `, ``,
	).Replace(sampleSweepDoc))

	var out, errBuf bytes.Buffer
	if got := run([]string{"-fail-on-new", a, b}, &out, &errBuf); got != 1 {
		t.Fatalf("without -ignore: exit %d, want 1\n%s", got, out.String())
	}
	out.Reset()
	args := []string{"-ignore", "sweep.e*,sweep.deduped", "-fail-on-new", a, b}
	if got := run(args, &out, &errBuf); got != 0 {
		t.Fatalf("with -ignore: exit %d, want 0\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "ignored (-ignore)") {
		t.Fatalf("table missing ignore note:\n%s", out.String())
	}
	if strings.Contains(out.String(), "sweep.e") || strings.Contains(out.String(), "sweep.deduped") {
		t.Fatalf("ignored metric still in the table:\n%s", out.String())
	}
}

// TestGlobMatch: the -ignore matcher must support exact names, trailing-*
// prefixes (the historical behavior), and mid-string globs.
func TestGlobMatch(t *testing.T) {
	cases := []struct {
		pattern, name string
		want          bool
	}{
		{"ipc", "ipc", true},
		{"ipc", "ipc2", false},
		{"stage.*", "stage.mc.queue.p99", true},
		{"stage.*", "audit.total", false},
		{"run.*.wall_seconds", "run.jmein.Baseline.wall_seconds", true},
		{"run.*.wall_seconds", "run.jmein.Baseline.ipc", false},
		{"run.*.wall_seconds", "sweep.timing.wall_seconds", false},
		{"*.wall_seconds", "sweep.timing.wall_seconds", true},
		{"census.ch*.stall.*", "census.ch0.stall.trcd", true},
		{"census.ch*.stall.*", "census.requests", false},
		{"*", "anything", true},
	}
	for _, c := range cases {
		if got := globMatch(c.pattern, c.name); got != c.want {
			t.Errorf("globMatch(%q, %q) = %v, want %v", c.pattern, c.name, got, c.want)
		}
	}
}

const sampleCensusDoc = `{
	"telemetry": {
		"census": {
			"requests": 100, "latency_cycles": 5000, "attributed_cycles": 5000,
			"bank_cycles": 2000, "partition_cycles": 2000,
			"advancing": 1200, "timing_wait": 700, "idle": 100,
			"skippable_frac": 0.4,
			"gap_count": 300, "gap_mean": 2.67, "gap_p50": 2, "gap_p90": 5,
			"gap_p99": 9, "gap_max": 40,
			"gap_hist": [{"lo": 1, "hi": 2, "count": 150}],
			"stalls": [
				{"cause": "queued", "cycles": 3000, "share": 0.6, "requests": 90},
				{"cause": "trcd", "cycles": 2000, "share": 0.4, "requests": 40}
			],
			"residency": [
				{"state": "serving", "cycles": 900, "share": 0.45},
				{"state": "idle", "cycles": 1100, "share": 0.55}
			],
			"ingress": {"mshr_full": 7, "merge_limit": 2, "queue_full": 0},
			"channels": [
				{"channel": 0, "requests": 100, "latency_cycles": 5000,
				 "skippable_frac": 0.4,
				 "stall_cycles": {"queued": 3000, "trcd": 2000},
				 "banks": [{"bank": 0, "serving": 900, "idle": 1100}]}
			],
			"host": {"sample_every": 64, "mem_ticks_sampled": 31, "mem_ns": 123456}
		}
	}
}`

// TestFlattenCensus: the census block flattens to gateable scalars — totals,
// the Σ-invariant pair, per-cause stalls, per-state residency, ingress, the
// gap histogram, and per-channel and per-bank rollups — while the wall-clock
// host profile stays out.
func TestFlattenCensus(t *testing.T) {
	m, skipped := flatten(t, sampleCensusDoc)
	if len(skipped) != 0 {
		t.Fatalf("unexpected skipped metrics: %v", skipped)
	}
	const c = "telemetry.census."
	for name, want := range map[string]float64{
		c + "requests":                       100,
		c + "latency_cycles":                 5000,
		c + "attributed_cycles":              5000,
		c + "bank_cycles":                    2000,
		c + "partition_cycles":               2000,
		c + "advancing":                      1200,
		c + "timing_wait":                    700,
		c + "idle":                           100,
		c + "skippable_frac":                 0.4,
		c + "gap_p99":                        9,
		c + "gap_hist.1.2.count":             150,
		c + "stalls.queued.cycles":           3000,
		c + "stalls.queued.requests":         90,
		c + "stalls.trcd.cycles":             2000,
		c + "residency.serving.cycles":       900,
		c + "residency.idle.cycles":          1100,
		c + "ingress.mshr_full":              7,
		c + "channels.0.requests":            100,
		c + "channels.0.skippable_frac":      0.4,
		c + "channels.0.stall_cycles.queued": 3000,
		c + "channels.0.stall_cycles.trcd":   2000,
		c + "channels.0.banks.0.serving":     900,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("flatten[%q] = %v (present=%v), want %v", name, got, ok, want)
		}
	}
	for name := range m {
		if strings.Contains(name, "host") {
			t.Errorf("flatten leaked wall-clock census key %q", name)
		}
	}
}

// TestUnmatchedPatternIsInputError: an -ignore or -thresholds pattern that
// matches no metric of either document exits 2 instead of making its rule
// a silent no-op; a pattern matching a metric of only one document counts.
func TestUnmatchedPatternIsInputError(t *testing.T) {
	dir := t.TempDir()
	self := writeDoc(t, dir, "a.json", sampleReport)
	short := writeDoc(t, dir, "b.json", strings.Replace(sampleReport, `"bwutil": 0.42,`, ``, 1))
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-ignore", "ipc,telemetry.stage.*", self, self}, 2},
		{[]string{"-ignore", "run.*.wall_seconds", self, self}, 2},
		{[]string{"-thresholds", "ipc=0.1,stage.*=0.1", self, self}, 2},
		{[]string{"-thresholds", "ipcc=0.1", self, self}, 2},
		{[]string{"-ignore", "ipc,telemetry.stages.*", "-thresholds", "energy_by_channel.*=0.1,activations=0", self, self}, 0},
		{[]string{"-ignore", "bwutil", "-fail-on-new", self, short}, 0},
	} {
		var out, errBuf bytes.Buffer
		if got := run(tc.args, &out, &errBuf); got != tc.want {
			t.Errorf("%v: exit %d, want %d\n%s", tc.args, got, tc.want, errBuf.String())
		}
		if tc.want == 2 && !strings.Contains(errBuf.String(), "matches no metric") {
			t.Errorf("%v: stderr does not name the unmatched pattern:\n%s", tc.args, errBuf.String())
		}
	}
}

// TestZeroedOmitemptyValueFailsGate: a gated number encoded with omitempty
// vanishes from the document when it becomes zero; the gate must read it
// as 0 and fail, not report it baseline-only and pass.
func TestZeroedOmitemptyValueFailsGate(t *testing.T) {
	dir := t.TempDir()
	withDrops := strings.Replace(sampleReport, `"every": 4096,`, `"every": 4096, "dropped": 3,`, 1)
	base := writeDoc(t, dir, "a.json", withDrops)
	// The encoder leaves out both zeroed values: the digest's dropped count
	// and the adapt point's threshold.
	zeroed := strings.Replace(strings.Replace(withDrops, `"dropped": 3,`, ``, 1), `, "th_rbl": 7`, ``, 1)
	cand := writeDoc(t, dir, "b.json", zeroed)
	var out, errBuf bytes.Buffer
	if got := run([]string{base, cand}, &out, &errBuf); got != 1 {
		t.Fatalf("exit %d, want 1\n%s%s", got, out.String(), errBuf.String())
	}
	for _, name := range []string{"telemetry.digest.dropped", "telemetry.audit.adapt.1024.0.ams.th_rbl"} {
		if !strings.Contains(out.String(), name) || strings.Contains(out.String(), "baseline-only") {
			t.Errorf("%s not reported as a failure:\n%s", name, out.String())
		}
	}
	if !strings.Contains(out.String(), "2 failed, 0 unmatched") {
		t.Errorf("summary:\n%s", out.String())
	}
	m, _ := flatten(t, sampleReport)
	if got, ok := m["telemetry.digest.dropped"]; !ok || got != 0 {
		t.Errorf("absent omitempty number reads %v (present=%v), want 0", got, ok)
	}
}
