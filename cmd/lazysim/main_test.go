package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lazydram/internal/cliflags"
	"lazydram/internal/mc"
	"lazydram/internal/obs"
	"lazydram/internal/rundoc"
	"lazydram/internal/sim"
	"lazydram/internal/workloads"
)

// TestMain lets tests re-exec this binary as the real CLI: with
// LAZYSIM_BE_MAIN set, the process runs main() on its own arguments instead
// of the test suite, so observability-misconfiguration exits can be asserted.
func TestMain(m *testing.M) {
	if os.Getenv("LAZYSIM_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// occupyPort binds an ephemeral port and keeps it open so a second listen on
// the same address must fail.
func occupyPort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// TestObservabilityBindFailuresExitNonzero asserts that a -metrics-addr or
// -pprof address that cannot be bound aborts the process with exit code 1
// before any simulation starts.
func TestObservabilityBindFailuresExitNonzero(t *testing.T) {
	busy := occupyPort(t)
	for _, tc := range [][]string{
		{"-app", "SCP", "-metrics-addr", busy},
		{"-app", "SCP", "-pprof", busy},
	} {
		cmd := exec.Command(os.Args[0], tc...)
		cmd.Env = append(os.Environ(), "LAZYSIM_BE_MAIN=1")
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Errorf("args %v: err = %v (output %q), want exit code 1", tc, err, out)
		}
	}
}

// TestSweepListErrorsExitUsage asserts that an unknown app, a bad -sweep
// scheme or an empty app or scheme list exits 2, like the single-run path's
// usage errors, before any run starts.
func TestSweepListErrorsExitUsage(t *testing.T) {
	for _, tc := range [][]string{
		{"-app", "SCP", "-sweep", "nope"},
		{"-app", "SCP", "-sweep", "dms(-5)"},
		{"-app", "SCP", "-sweep", ","},
		{"-app", ",", "-sweep", "baseline"},
		{"-app", "nope", "-sweep", "baseline"},
		{"-app", "SCP,nope", "-sweep", "baseline"},
	} {
		cmd := exec.Command(os.Args[0], tc...)
		cmd.Env = append(os.Environ(), "LAZYSIM_BE_MAIN=1")
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("args %v: err = %v (output %q), want exit code 2", tc, err, out)
		}
	}
}

// TestMetricsServerEndToEnd drives the same path as -metrics-addr: bind an
// ephemeral port, run a real simulation publishing into the registry, and
// scrape /metrics and /vars over HTTP while and after it runs.
func TestMetricsServerEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr, err := cliflags.ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	kern, err := workloads.New("SCP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Obs = obs.Options{Metrics: reg}
	res, err := sim.Simulate(kern, cfg, mc.DynBoth, 1)
	if err != nil {
		t.Fatal(err)
	}

	get := func(path string) []byte {
		t.Helper()
		cl := &http.Client{Timeout: 5 * time.Second}
		resp, err := cl.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	prom := string(get("/metrics"))
	for _, name := range []string{
		"lazysim_core_cycles_total",
		"lazysim_instructions_total",
		"lazysim_ipc",
		"lazysim_bwutil",
		"lazysim_row_energy_nj",
		`lazysim_run_info{app="SCP",scheme="Dyn-DMS+Dyn-AMS"} 1`,
		`lazysim_bank_activations_total{channel="0",bank="0"}`,
		`lazysim_channel_reads_total{channel="0"}`,
	} {
		if !strings.Contains(prom, name) {
			t.Errorf("/metrics missing %q", name)
		}
	}

	var vars map[string]any
	if err := json.Unmarshal(get("/vars"), &vars); err != nil {
		t.Fatalf("/vars not valid JSON: %v", err)
	}
	if got := vars["lazysim_mem_cycles_total"]; got != float64(res.Run.Mem.Cycles) {
		t.Errorf("/vars mem cycles %v, want %d", got, res.Run.Mem.Cycles)
	}
}

// TestBuildReportJSON checks the -json document carries the per-bank
// attribution, the hottest-bank summary honours -top-banks, and the whole
// report round-trips through encoding/json with the stable field names
// lazycmp flattens.
func TestBuildReportJSON(t *testing.T) {
	kern, err := workloads.New("SCP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	res, err := sim.Simulate(kern, cfg, mc.DynBoth, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep := rundoc.Build(&res.Run, res, 1, 123*time.Millisecond, 2)

	if len(rep.EnergyByChannel) == 0 {
		t.Fatal("report missing energy_by_channel")
	}
	if len(rep.HottestBanks) != 2 {
		t.Fatalf("top-banks=2 produced %d entries", len(rep.HottestBanks))
	}

	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"app", "scheme", "ipc", "bwutil", "activations",
		"row_energy_nj", "mem_energy_nj", "energy_by_channel", "hottest_banks",
	} {
		if _, ok := doc[key]; !ok {
			t.Errorf("report JSON missing %q", key)
		}
	}
	ebc := doc["energy_by_channel"].([]any)
	ch0 := ebc[0].(map[string]any)
	for _, key := range []string{"channel", "row_nj", "access_nj", "background_nj", "total_nj", "banks"} {
		if _, ok := ch0[key]; !ok {
			t.Errorf("energy_by_channel entry missing %q", key)
		}
	}
}

// TestRunSweep drives the -sweep multi-run mode end to end: rows must appear
// in declaration order (app-major, scheme-minor) no matter which concurrent
// simulation finishes first, and scheme parse errors must surface.
func TestRunSweep(t *testing.T) {
	var buf bytes.Buffer
	o := sweepOptions{Seed: 1, Queue: 128, Delay: 128, ThRBL: 8, Workers: 2}
	if err := runSweep(&buf, "jmein,LPS", "baseline,static-ams", o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "4 runs in") {
		t.Fatalf("sweep did not report 4 runs:\n%s", out)
	}
	ji := strings.Index(out, "jmein")
	li := strings.Index(out, "LPS")
	if ji < 0 || li < 0 || ji > li {
		t.Fatalf("sweep rows out of declaration order:\n%s", out)
	}
	if err := runSweep(io.Discard, "jmein", "no-such-scheme", o); err == nil {
		t.Fatal("unknown sweep scheme accepted")
	}
	if err := runSweep(io.Discard, "", "baseline", o); err == nil {
		t.Fatal("empty app list accepted")
	}
}

// TestRunSweepJSON drives -sweep -json -runlog end to end: the document must
// carry the per-run rows in declaration order plus a sweep summary whose
// counts are the deterministic values for this point set, and the runlog
// files must exist and parse.
func TestRunSweepJSON(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "sweep")
	var buf bytes.Buffer
	o := sweepOptions{
		Seed: 1, Queue: 128, Delay: 128, ThRBL: 8, Workers: 2,
		JSON: true, RunLogPrefix: prefix,
	}
	if err := runSweep(&buf, "jmein,LPS", "baseline,static-ams", o); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Seed int64 `json:"seed"`
		Runs []struct {
			App    string  `json:"app"`
			Scheme string  `json:"scheme"`
			IPC    float64 `json:"ipc"`
		} `json:"runs"`
		Sweep *obs.SweepSummary `json:"sweep"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("sweep JSON invalid: %v\n%s", err, buf.String())
	}
	if len(doc.Runs) != 4 {
		t.Fatalf("rows = %d, want 4", len(doc.Runs))
	}
	if doc.Runs[0].App != "jmein" || doc.Runs[2].App != "LPS" {
		t.Fatalf("rows out of declaration order: %+v", doc.Runs)
	}
	s := doc.Sweep
	if s == nil {
		t.Fatal("document has no sweep block")
	}
	// Each of the 4 points is requested twice (prefetch + consuming Run):
	// exactly one executes, one joins — so every count below is invariant
	// under the worker count and scheduling.
	if s.Runs != 8 || s.Executed != 4 || s.Deduped != 4 || s.Errors != 0 {
		t.Fatalf("sweep counts: %+v", s)
	}
	if s.Events != 28 { // 5 events per executed span + 2 per joined span
		t.Fatalf("events = %d, want 28", s.Events)
	}
	if s.Executed+s.Deduped+s.Errors != s.Runs {
		t.Fatalf("terminal spans do not cover runs: %+v", s)
	}

	raw, err := os.ReadFile(prefix + ".trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var trace map[string]any
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace file invalid: %v", err)
	}
	events, err := os.ReadFile(prefix + ".events.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(events), "\n")
	if lines != s.Events {
		t.Fatalf("events file has %d lines, summary says %d", lines, s.Events)
	}
}
