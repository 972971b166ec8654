package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sampleDoc resembles a lazysim -json document with audit and quality
// telemetry attached.
const sampleDoc = `{
  "app": "SCP", "scheme": "dyn-both", "seed": 1,
  "core_cycles": 120000, "instructions": 95000, "ipc": 0.7917,
  "activations": 5200, "reads": 61000, "writes": 9400,
  "avg_rbl": 3.4, "bwutil": 0.62, "coverage": 0.081, "dropped": 4940,
  "queue_occ": 11.2, "row_energy_nj": 3120.5, "mem_energy_nj": 9980.1,
  "app_error": 0.0123, "final_delay": 384, "final_th_rbl": 3,
  "mean_delay": 201.7, "mean_th_rbl": 2.9,
  "energy_by_channel": [
    {"channel": 0, "row_nj": 1600.2, "total_nj": 5100.0, "banks": [
      {"bank": 0, "row_nj": 900.1, "activations": 1400, "row_hits": 9000,
       "row_conflicts": 310, "dms_delay_cycles": 5200, "ams_drops": 1300},
      {"bank": 1, "row_nj": 700.1, "activations": 1200, "row_hits": 8000,
       "row_conflicts": 250, "dms_delay_cycles": 4100, "ams_drops": 1100}
    ]},
    {"channel": 1, "row_nj": 1520.3, "total_nj": 4880.1, "banks": [
      {"bank": 0, "row_nj": 800.2, "activations": 1300, "row_hits": 8500,
       "row_conflicts": 280, "dms_delay_cycles": 4600, "ams_drops": 1280},
      {"bank": 1, "row_nj": 720.1, "activations": 1300, "row_hits": 8200,
       "row_conflicts": 260, "dms_delay_cycles": 4500, "ams_drops": 1260}
    ]}
  ],
  "telemetry": {
    "stages": [
      {"stage": "queue", "clock": "mem", "count": 70000, "mean": 41.2,
       "p50": 18, "p90": 120, "p99": 600, "max": 2400},
      {"stage": "service", "clock": "mem", "count": 70000, "mean": 19.8,
       "p50": 14, "p90": 44, "p99": 170, "max": 900}
    ],
    "sample_every": 4096,
    "series": [
      {"mem_cycle": 4096, "ipc": 0.71, "bwutil": 0.55, "queue_occ": 9.1},
      {"mem_cycle": 8192, "ipc": 0.78, "bwutil": 0.61, "queue_occ": 10.4},
      {"mem_cycle": 12288, "ipc": 0.81, "bwutil": 0.66, "queue_occ": 12.0}
    ],
    "audit": {
      "total": 26000, "ring_capacity": 65536,
      "dms_delay_holds": 18400, "dms_delay_expiries": 96,
      "ams_drops": 4940, "ams_skips": 2564,
      "reasons": [
        {"unit": "dms", "kind": "delay", "reason": "delay-hold", "count": 18400},
        {"unit": "dms", "kind": "expire", "reason": "delay-expired", "count": 96},
        {"unit": "ams", "kind": "drop", "reason": "drop", "count": 4940},
        {"unit": "ams", "kind": "skip", "reason": "rbl-above-threshold", "count": 1800},
        {"unit": "ams", "kind": "skip", "reason": "coverage-exhausted", "count": 764}
      ],
      "adapt": [
        {"cycle": 1024, "channel": 0, "unit": "dms", "delay": 128, "bwutil": 0.41, "phase": "sampling"},
        {"cycle": 2048, "channel": 0, "unit": "dms", "delay": 256, "bwutil": 0.44, "phase": "searching"},
        {"cycle": 1024, "channel": 0, "unit": "ams", "th_rbl": 2, "coverage": 0.05,
         "window_reads": 900, "window_dropped": 45},
        {"cycle": 2048, "channel": 0, "unit": "ams", "th_rbl": 3, "coverage": 0.07,
         "window_reads": 870, "window_dropped": 70}
      ]
    },
    "quality": {
      "lines": 4940, "words": 158080,
      "mean_abs_error": 0.034, "mean_rel_error": 0.0061,
      "rel_p50": 0.001, "rel_p90": 0.02, "rel_p99": 0.31, "max_rel_error": 4.2,
      "rel_hist": [
        {"lo": 0, "hi": 0, "count": 61000},
        {"lo": 1e-4, "hi": 1e-3, "count": 52000},
        {"lo": 1e-3, "hi": 1e-2, "count": 30000},
        {"lo": 1e-2, "hi": 1e-1, "count": 14000}
      ],
      "abs_hist": [
        {"lo": 0, "hi": 0, "count": 61000},
        {"lo": 1e-3, "hi": 1e-2, "count": 60000},
        {"lo": 1e-2, "hi": 1e-1, "count": 37080}
      ],
      "worst": [
        {"addr": 4198400, "cycle": 90412, "words": 32, "mean_abs": 1.9,
         "mean_rel": 0.8, "max_rel": 4.2}
      ]
    }
  }
}`

func writeSample(t *testing.T, dir, name string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(sampleDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReportSelfContained is the end-to-end check required by the issue:
// the emitted HTML must carry its charts inline and reference nothing over
// the network.
func TestReportSelfContained(t *testing.T) {
	dir := t.TempDir()
	in := writeSample(t, dir, "run.json")
	out := filepath.Join(dir, "report.html")
	var stderr bytes.Buffer
	if code := run([]string{in, "-o", out}, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)

	if !strings.Contains(page, "<svg") {
		t.Error("report contains no inline SVG")
	}
	for _, want := range []string{
		"delay-hold", "rbl-above-threshold", "coverage-exhausted",
		"Scheduler decisions", "Approximation quality", "Bank heatmaps",
		"Dyn adaptation", "Request latency by stage",
		"SCP", "dyn-both",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Self-containment: no scripts, no external fetch vectors.
	for _, banned := range []string{
		"http://", "https://", "<script", "@import", "url(", "<link", "<iframe", "srcset",
	} {
		if strings.Contains(page, banned) {
			t.Errorf("report references external content: found %q", banned)
		}
	}
}

func TestReportComparisonMode(t *testing.T) {
	dir := t.TempDir()
	a := writeSample(t, dir, "a.json")
	b := writeSample(t, dir, "b.json")
	out := filepath.Join(dir, "cmp.html")
	var stderr bytes.Buffer
	if code := run([]string{"-o", out, a, b}, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)
	if !strings.Contains(page, "Comparison") {
		t.Error("two-document report missing comparison section")
	}
	// Identical inputs: every Δ% should be +0.00%.
	if !strings.Contains(page, "+0.00%") {
		t.Error("comparison table missing zero deltas for identical inputs")
	}
	if strings.Contains(page, "NaN") {
		t.Error("comparison emitted NaN")
	}
}

func TestRunRejectsBadInvocation(t *testing.T) {
	var stderr bytes.Buffer
	if code := run(nil, &stderr); code != 2 {
		t.Errorf("no args: got exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"a.json", "b.json", "c.json"}, &stderr); code != 2 {
		t.Errorf("three docs: got exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{filepath.Join(t.TempDir(), "missing.json")}, &stderr); code != 2 {
		t.Errorf("missing file: got exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-bogus"}, &stderr); code != 2 {
		t.Errorf("unknown flag: got exit %d, want 2", code)
	}
}

func TestReportHandlesSparseDoc(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "bare.json")
	if err := os.WriteFile(p, []byte(`{"app":"RED","scheme":"baseline","seed":7,"ipc":1.5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "bare.html")
	var stderr bytes.Buffer
	if code := run([]string{p, "-o", out}, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)
	if !strings.Contains(page, "Run summary") {
		t.Error("sparse report missing run summary")
	}
	for _, banned := range []string{"Scheduler decisions", "Approximation quality", "Bank heatmaps"} {
		if strings.Contains(page, banned) {
			t.Errorf("sparse report should omit %q section", banned)
		}
	}
}

const sampleSweepDoc = `{
	"seed": 1,
	"runs": [
		{"app": "jmein", "scheme": "Baseline", "ipc": 2.8, "activations": 11494,
		 "row_energy_nj": 258615, "app_error": 0, "coverage": 0}
	],
	"sweep": {
		"runs": 8, "executed": 4, "deduped": 4, "errors": 0,
		"prefetch_hits": 3, "events": 28, "workers": 2, "sim_cycles": 48321,
		"timing": {
			"wall_seconds": 1.19, "run_mean_seconds": 0.56,
			"run_p50_seconds": 0.49, "run_p99_seconds": 0.61, "run_max_seconds": 0.68,
			"queue_wait_p50_seconds": 0.0001, "queue_wait_p99_seconds": 0.59,
			"queue_wait_max_seconds": 0.61, "worker_occupancy": 0.94,
			"cycles_per_sec": 40485, "alloc_bytes": 550490152, "mallocs": 4786798,
			"queue_wait_hist": [
				{"lo": 2, "hi": 3, "count": 1}, {"lo": 589824, "hi": 598016, "count": 3}
			]
		},
		"spans": [
			{"id": 0, "app": "jmein", "scheme": "Baseline", "origin": "prefetch",
			 "state": "done", "worker": 0, "target": -1,
			 "submitted_us": 10, "started_us": 50, "finished_us": 500000,
			 "queue_wait_us": 40, "wall_us": 499950,
			 "sim_cycles": 12000, "cycles_per_sec": 24002.4, "joins": 1},
			{"id": 1, "app": "jmein", "scheme": "Static-AMS", "origin": "prefetch",
			 "state": "done", "worker": 1, "target": -1,
			 "submitted_us": 12, "started_us": 60, "finished_us": 680580,
			 "queue_wait_us": 48, "wall_us": 680520,
			 "sim_cycles": 12100, "cycles_per_sec": 17780.5},
			{"id": 2, "app": "jmein", "scheme": "Baseline", "origin": "call",
			 "state": "dedup-joined", "worker": -1, "target": 0, "prefetch_hit": true,
			 "submitted_us": 100, "started_us": -1, "finished_us": 120}
		]
	}
}`

// TestReportSweepDashboard: a sweep document renders the sweep dashboard —
// worker timeline, run-duration CDF, dedupe stats, queue-wait histogram —
// instead of the single-run summary, and stays self-contained.
func TestReportSweepDashboard(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(p, []byte(sampleSweepDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "sweep.html")
	var stderr bytes.Buffer
	if code := run([]string{p, "-o", out}, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)
	for _, want := range []string{
		"Sweep dashboard", "worker timeline", "run-duration CDF",
		"dedupe effectiveness", "queue-wait histogram",
		"worker 0", "worker 1", "jmein/Baseline", "prefetch hits",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("sweep report missing %q", want)
		}
	}
	if strings.Contains(page, "Run summary") {
		t.Error("sweep report should not render the single-run summary")
	}
	for _, banned := range []string{"http://", "https://", "<script", "<link"} {
		if strings.Contains(page, banned) {
			t.Errorf("sweep report references external content: found %q", banned)
		}
	}
}

const sampleCensusBlock = `{
	"requests": 65692, "latency_cycles": 23500706, "attributed_cycles": 23500706,
	"stalls": [
		{"cause": "queued", "cycles": 14000000, "share": 0.596, "requests": 60000, "mean": 233, "p99": 900, "max": 2200},
		{"cause": "dms_hold", "cycles": 6000000, "share": 0.255, "requests": 9000, "mean": 666, "p99": 1100, "max": 1400},
		{"cause": "trcd", "cycles": 1500000, "share": 0.064, "requests": 30000, "mean": 50, "p99": 90, "max": 120},
		{"cause": "cas", "cycles": 2000706, "share": 0.085, "requests": 65692, "mean": 30, "p99": 31, "max": 31}
	],
	"bank_cycles": 265602,
	"residency": [
		{"state": "serving", "cycles": 800000, "share": 0.38},
		{"state": "dms_held", "cycles": 400000, "share": 0.19},
		{"state": "timing_wait", "cycles": 500000, "share": 0.23},
		{"state": "open_idle", "cycles": 200000, "share": 0.09},
		{"state": "precharging", "cycles": 100000, "share": 0.05},
		{"state": "idle", "cycles": 124816, "share": 0.06}
	],
	"partition_cycles": 265602, "advancing": 171955, "timing_wait": 87535, "idle": 6112,
	"skippable_frac": 0.3526,
	"gap_count": 44688, "gap_mean": 2.1, "gap_p50": 1, "gap_p90": 3, "gap_p99": 9, "gap_max": 423,
	"gap_hist": [{"lo": 1, "hi": 2, "count": 22916}, {"lo": 2, "hi": 3, "count": 11773}],
	"ingress": {"mshr_full": 1200, "merge_limit": 40, "queue_full": 7},
	"channels": [
		{"channel": 0, "requests": 32846, "latency_cycles": 11750353, "skippable_frac": 0.35,
		 "stall_cycles": {"queued": 7000000, "dms_hold": 3000000, "trcd": 750000, "cas": 1000353},
		 "banks": [
			{"bank": 0, "serving": 50000, "dms_held": 25000, "timing_wait": 31000,
			 "open_idle": 12000, "precharging": 6000, "idle": 8801},
			{"bank": 1, "serving": 49000, "dms_held": 26000, "timing_wait": 32000,
			 "open_idle": 12500, "precharging": 6200, "idle": 7101}
		 ]}
	],
	"host": {
		"sample_every": 64, "core_ticks_sampled": 4096, "core_ns": 8200000,
		"mem_ticks_sampled": 4150, "mem_ns": 9300000,
		"probe_ticks_sampled": 4150, "probe_ns": 510000
	}
}`

// TestReportCensusSection: a -census document renders the cycle-census
// panels — stall-cause stacked bars, the bank-residency heatmap, the
// skippable-fraction tile, and the host phase tiles — and stays
// self-contained.
func TestReportCensusSection(t *testing.T) {
	dir := t.TempDir()
	doc := strings.Replace(sampleDoc, `"telemetry": {`,
		`"telemetry": {"census": `+sampleCensusBlock+",", 1)
	p := filepath.Join(dir, "census.json")
	if err := os.WriteFile(p, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "census.html")
	var stderr bytes.Buffer
	if code := run([]string{p, "-o", out}, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)
	for _, want := range []string{
		"Cycle census", "stall-cause decomposition", "bank state residency",
		"skippable fraction", "35.3%", "partition-cycle census",
		"next-event gap histogram", "dms_hold", "ch0·b1",
		"Ingress backpressure", "Host phase profile", "probe/publish (mean)",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("census report missing %q", want)
		}
	}
	if strings.Contains(page, "invariant violation") {
		t.Error("healthy census rendered an invariant warning")
	}
	for _, banned := range []string{"http://", "https://", "<script", "<link"} {
		if strings.Contains(page, banned) {
			t.Errorf("census report references external content: found %q", banned)
		}
	}

	// A violated invariant must surface loudly in the page.
	bad := strings.Replace(doc, `"attributed_cycles": 23500706,`,
		`"attributed_cycles": 23500705, "invariant_error": "attributed 23500705 != latency 23500706",`, 1)
	pb := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(pb, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	outB := filepath.Join(dir, "bad.html")
	if code := run([]string{pb, "-o", outB}, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	rawB, err := os.ReadFile(outB)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rawB), "Σ-invariant violation") {
		t.Error("broken census did not render the invariant warning")
	}
}
