package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lazydram/internal/obs"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestShardedVsSequentialNoDivergence is the determinism self-test: two
// identical configurations, with fault injection active on both sides, must
// produce identical digest streams.
func TestShardedVsSequentialNoDivergence(t *testing.T) {
	code, out, errb := runCLI(t,
		"-app", "SCP", "-scheme", "baseline", "-digest-every", "512",
		"-fault-a", "-fault-b")
	if code != exitClean {
		t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, exitClean, out, errb)
	}
	if !strings.Contains(out, "no divergence") {
		t.Errorf("stdout = %q, want no-divergence report", out)
	}
}

// TestFaultDivergencePinpointed is the perturbation self-test: fault-on vs
// fault-off on the same seed must diverge, and the reported site must be an
// exact mem cycle inside the first divergent interval with a partition-level
// component path.
func TestFaultDivergencePinpointed(t *testing.T) {
	code, out, errb := runCLI(t,
		"-app", "SCP", "-scheme", "baseline", "-digest-every", "512", "-json",
		"-fault-b", "-fault-ber", "1e-4", "-fault-weak-density", "1e-3")
	if code != exitDiverged {
		t.Fatalf("exit %d, want %d\nstderr: %s", code, exitDiverged, errb)
	}
	var rep report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bad JSON report: %v\n%s", err, out)
	}
	if !rep.Diverged {
		t.Fatal("report.Diverged = false")
	}
	if rep.IntervalCycle == 0 {
		t.Errorf("IntervalCycle = 0, want first divergent sample cycle")
	}
	if rep.ExactCycle == 0 || rep.ExactCycle > rep.IntervalCycle {
		t.Errorf("ExactCycle = %d, want in (WindowStart=%d, IntervalCycle=%d]",
			rep.ExactCycle, rep.WindowStart, rep.IntervalCycle)
	}
	if !strings.Contains(rep.Deepest, "partition[") {
		t.Errorf("Deepest = %q, want a partition component path", rep.Deepest)
	}
	if len(rep.Components) == 0 {
		t.Errorf("no divergent components listed")
	}
	// The deepest node is the heaps of partition 0, where the first faulty
	// read waits: the report must name the fault count of its done entry.
	if rep.Deepest != "partition[0].heaps" {
		t.Errorf("Deepest = %q, want partition[0].heaps", rep.Deepest)
	}
	var faults *fieldDiff
	for i := range rep.Fields {
		if rep.Fields[i].Field == "done[0].faults" {
			faults = &rep.Fields[i]
		}
	}
	if faults == nil || faults.A == faults.B {
		t.Errorf("fields = %+v, want done[0].faults with A != B", rep.Fields)
	}
	if rep.Meta.Build.GoVersion == "" {
		t.Errorf("meta.build missing from report")
	}
}

// TestDivergenceExplainsEveryDeepestNode checks that the report explains
// every divergent node of the greatest depth, not only the first: fault on
// vs off on SCP Baseline diverges at the same cycle in the heaps of
// partitions 0 and 2, and both must report their faulty done entry.
func TestDivergenceExplainsEveryDeepestNode(t *testing.T) {
	code, out, errb := runCLI(t,
		"-app", "SCP", "-scheme", "baseline", "-digest-every", "512", "-json",
		"-fault-b", "-fault-ber", "1e-4", "-fault-weak-density", "1e-3")
	if code != exitDiverged {
		t.Fatalf("exit %d, want %d\nstderr: %s", code, exitDiverged, errb)
	}
	var rep struct {
		Deepest string `json:"deepest"`
		Fields  []struct {
			Path, Field, A, B string
		} `json:"fields"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bad JSON report: %v\n%s", err, out)
	}
	if rep.Deepest != "partition[0].heaps" {
		t.Errorf("Deepest = %q, want the first deepest node partition[0].heaps", rep.Deepest)
	}
	for _, path := range []string{"partition[0].heaps", "partition[2].heaps"} {
		found := false
		for _, f := range rep.Fields {
			found = found || (f.Path == path && f.Field == "done[0].faults" && f.A != f.B)
		}
		if !found {
			t.Errorf("no differing done[0].faults field reported for %s; fields = %+v", path, rep.Fields)
		}
	}
}

// TestDumpAndStreamMode round-trips recorded streams: -dump-a/-dump-b write
// the two digest streams, and stream mode re-detects the same first divergent
// interval from the files alone.
func TestDumpAndStreamMode(t *testing.T) {
	dir := t.TempDir()
	fa, fb := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	code, out, errb := runCLI(t,
		"-app", "SCP", "-scheme", "baseline", "-digest-every", "512", "-json",
		"-fault-b", "-fault-ber", "1e-4", "-fault-weak-density", "1e-3",
		"-no-lockstep", "-dump-a", fa, "-dump-b", fb)
	if code != exitDiverged {
		t.Fatalf("record run: exit %d\nstderr: %s", code, errb)
	}
	var recorded report
	if err := json.Unmarshal([]byte(out), &recorded); err != nil {
		t.Fatal(err)
	}
	if recorded.ExactCycle != 0 {
		t.Errorf("-no-lockstep still reported exact cycle %d", recorded.ExactCycle)
	}

	f, err := os.Open(fa)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadDigestJSONL(f)
	f.Close()
	if err != nil || len(recs) == 0 {
		t.Fatalf("dump unreadable: %v (%d records)", err, len(recs))
	}

	code, out, errb = runCLI(t, "-json", "-stream-a", fa, "-stream-b", fb)
	if code != exitDiverged {
		t.Fatalf("stream mode: exit %d\nstderr: %s", code, errb)
	}
	var streamed report
	if err := json.Unmarshal([]byte(out), &streamed); err != nil {
		t.Fatal(err)
	}
	if streamed.Mode != "stream" {
		t.Errorf("Mode = %q, want stream", streamed.Mode)
	}
	if streamed.IntervalCycle != recorded.IntervalCycle {
		t.Errorf("stream mode interval %d != recorded interval %d",
			streamed.IntervalCycle, recorded.IntervalCycle)
	}

	// Identical streams: no divergence.
	code, _, _ = runCLI(t, "-stream-a", fa, "-stream-b", fa)
	if code != exitClean {
		t.Errorf("identical streams: exit %d, want %d", code, exitClean)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-stream-a", "only-one.jsonl"},
		{"-scheme", "nope"},
		{"-app", "nope"},
		{"-digest-every", "0"},
		{"-stream-a", "missing-a.jsonl", "-stream-b", "missing-b.jsonl"},
	} {
		if code, _, _ := runCLI(t, args...); code != exitUsage {
			t.Errorf("args %v: exit %d, want %d", args, code, exitUsage)
		}
	}
}

func TestVersionFlag(t *testing.T) {
	code, out, _ := runCLI(t, "-version")
	if code != exitClean || !strings.Contains(out, "go") {
		t.Errorf("-version: exit %d, out %q", code, out)
	}
}
