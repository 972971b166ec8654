// Command lazydiverge localizes the first divergence between two simulations.
//
// It runs the same workload twice under two configurations (A and B), each
// with the state-digest flight recorder on, and compares the recorded digest
// streams to find the first divergent sampling interval. It then re-runs both
// simulations in lockstep — one core cycle at a time via sim.GPU.Step — over
// that interval to pinpoint the exact memory cycle of first divergence and
// the deepest divergent component paths. It then dumps each of those
// components' labeled fields from both machines and reports the fields that
// differ.
//
// Usage:
//
//	lazydiverge -app SCP -scheme baseline [-fault-b] ...
//	lazydiverge -stream-a a.jsonl -stream-b b.jsonl
//
// Sides share -app/-seed/-queue/-delay/-thrbl; they differ by the per-side
// flags: -scheme-b overrides B's scheme, -fault-a/-fault-b enable fault
// injection (with the shared -fault-* parameters). The second form compares
// two previously recorded digest streams (lazysim -digest-log) and reports
// the first divergent interval without lockstep re-execution.
//
// Exit codes: 0 = no divergence, 1 = divergence found, 2 = usage or input
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"lazydram/internal/buildinfo"
	"lazydram/internal/mc"
	"lazydram/internal/obs"
	"lazydram/internal/sim"
	"lazydram/internal/workloads"
)

const (
	exitClean    = 0
	exitDiverged = 1
	exitUsage    = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the machine-readable divergence report (-json).
type report struct {
	Meta struct {
		Build buildinfo.Build `json:"build"`
	} `json:"meta"`
	Mode     string `json:"mode"` // "run" or "stream"
	Diverged bool   `json:"diverged"`
	Every    uint64 `json:"every,omitempty"`
	// IntervalCycle is the mem cycle of the first divergent digest sample;
	// WindowStart the last sample where the streams still agreed.
	IntervalCycle uint64 `json:"interval_cycle,omitempty"`
	WindowStart   uint64 `json:"window_start,omitempty"`
	// ExactCycle/ExactCoreCycle locate the first divergent mem cycle found by
	// lockstep re-execution (0 when lockstep was skipped or not applicable).
	ExactCycle     uint64 `json:"exact_cycle,omitempty"`
	ExactCoreCycle uint64 `json:"exact_core_cycle,omitempty"`
	// Deepest is the first of the most specific divergent component paths;
	// Components lists every divergent node of the digest hierarchy.
	Deepest    string   `json:"deepest,omitempty"`
	Components []string `json:"components,omitempty"`
	// Fields lists, for every divergent node as deep as Deepest, the fields
	// whose values differ between the sides, matched by name across the two
	// dumps of that node.
	Fields []fieldDiff `json:"fields,omitempty"`
	Note   string      `json:"note,omitempty"`
}

// fieldDiff is one differing field of a deepest divergent component, Path.
// A field only one side has reads "" on the other.
type fieldDiff struct {
	Path  string `json:"path"`
	Field string `json:"field"`
	A     string `json:"a"`
	B     string `json:"b"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lazydiverge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		version = fs.Bool("version", false, "print build provenance and exit")
		jsonOut = fs.Bool("json", false, "emit the divergence report as one JSON document")

		app    = fs.String("app", "SCP", "application name")
		seed   = fs.Int64("seed", 1, "input RNG seed (shared by both sides)")
		queue  = fs.Int("queue", 128, "pending queue size")
		delay  = fs.Int("delay", 128, "static DMS delay (cycles)")
		thrbl  = fs.Int("thrbl", 8, "static AMS Th_RBL")
		scheme = fs.String("scheme", "baseline", "side A scheduling scheme (and B's default)")

		schemeB = fs.String("scheme-b", "", "side B scheme (default: -scheme)")
		faultA  = fs.Bool("fault-a", false, "side A enables the DRAM error model")
		faultB  = fs.Bool("fault-b", false, "side B enables the DRAM error model")

		faultBER     = fs.Float64("fault-ber", 1e-6, "bus bit-error rate for fault-enabled sides")
		faultDensity = fs.Float64("fault-weak-density", 1e-5, "weak-cell density for fault-enabled sides")
		faultSeed    = fs.Int64("fault-seed", 0, "fault-model RNG seed (0: reuse -seed)")

		every    = fs.Uint64("digest-every", 1024, "digest sampling interval in memory cycles")
		capacity = fs.Int("digest-cap", 0, "digest ring capacity (0: default)")

		streamA = fs.String("stream-a", "", "compare this recorded digest JSONL stream as side A (skips simulation)")
		streamB = fs.String("stream-b", "", "recorded digest JSONL stream for side B")
		dumpA   = fs.String("dump-a", "", "write side A's digest stream as JSONL to this file")
		dumpB   = fs.String("dump-b", "", "write side B's digest stream as JSONL to this file")

		noLockstep = fs.Bool("no-lockstep", false, "stop at interval granularity; skip the lockstep re-run")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Get().String())
		return exitClean
	}

	rep := &report{}
	rep.Meta.Build = buildinfo.Get()

	if (*streamA != "") != (*streamB != "") {
		fmt.Fprintln(stderr, "lazydiverge: -stream-a and -stream-b must be given together")
		return exitUsage
	}
	if *streamA != "" {
		code, err := compareStreams(*streamA, *streamB, rep)
		if err != nil {
			fmt.Fprintln(stderr, "lazydiverge:", err)
			return exitUsage
		}
		emit(rep, *jsonOut, stdout, stderr)
		return code
	}

	if *every == 0 {
		fmt.Fprintln(stderr, "lazydiverge: -digest-every must be > 0")
		return exitUsage
	}
	schA, err := mc.ParseScheme(*scheme, *delay, *thrbl)
	if err != nil {
		fmt.Fprintln(stderr, "lazydiverge:", err)
		return exitUsage
	}
	schB := schA
	if *schemeB != "" {
		if schB, err = mc.ParseScheme(*schemeB, *delay, *thrbl); err != nil {
			fmt.Fprintln(stderr, "lazydiverge:", err)
			return exitUsage
		}
	}

	side := func(faulty bool) sim.Config {
		cfg := sim.DefaultConfig()
		cfg.MC.QueueSize = *queue
		cfg.Obs.DigestEvery = *every
		cfg.Obs.DigestCapacity = *capacity
		if faulty {
			cfg.Fault.Enabled = true
			cfg.Fault.BusBER = *faultBER
			cfg.Fault.WeakCellDensity = *faultDensity
			cfg.Fault.Seed = *faultSeed
		}
		return cfg
	}
	cfgA, cfgB := side(*faultA), side(*faultB)

	simulate := func(cfg sim.Config, sch mc.Scheme) (*sim.Result, error) {
		kern, err := workloads.New(*app)
		if err != nil {
			return nil, err
		}
		return sim.Simulate(kern, cfg, sch, *seed)
	}
	resA, err := simulate(cfgA, schA)
	if err != nil {
		fmt.Fprintln(stderr, "lazydiverge: side A:", err)
		return exitUsage
	}
	resB, err := simulate(cfgB, schB)
	if err != nil {
		fmt.Fprintln(stderr, "lazydiverge: side B:", err)
		return exitUsage
	}
	if err := writeDump(*dumpA, resA.Digest); err != nil {
		fmt.Fprintln(stderr, "lazydiverge:", err)
		return exitUsage
	}
	if err := writeDump(*dumpB, resB.Digest); err != nil {
		fmt.Fprintln(stderr, "lazydiverge:", err)
		return exitUsage
	}

	rep.Mode = "run"
	rep.Every = *every
	recsA, recsB := resA.Digest.Records(), resB.Digest.Records()
	div := firstDivergence(recsA, recsB)
	if div == nil {
		if fa, fb := resA.Digest.Final(), resB.Digest.Final(); fa != fb {
			// Streams agree at every sample but the end-of-run states differ:
			// the divergence happened after the last sample.
			div = &streamDivergence{windowStart: lastCycle(recsA), intervalCycle: 0,
				note: fmt.Sprintf("streams identical; final machine digests differ (%#016x vs %#016x)", fa, fb)}
		}
	}
	if div == nil {
		emit(rep, *jsonOut, stdout, stderr)
		return exitClean
	}
	rep.Diverged = true
	rep.WindowStart = div.windowStart
	rep.IntervalCycle = div.intervalCycle
	rep.Note = div.note

	if !*noLockstep {
		lockstepNarrow(rep, *app, cfgA, cfgB, schA, schB, *seed, div, stderr)
	}
	emit(rep, *jsonOut, stdout, stderr)
	return exitDiverged
}

// streamDivergence brackets the first disagreement between two digest
// streams: the last cycle they agreed at and the first sampled cycle they
// disagreed at (0 when the disagreement is past the shorter stream's end).
type streamDivergence struct {
	windowStart   uint64
	intervalCycle uint64
	note          string
}

func lastCycle(recs []obs.DigestRecord) uint64 {
	if len(recs) == 0 {
		return 0
	}
	return recs[len(recs)-1].Cycle
}

// firstDivergence scans two streams for the first record where they disagree.
func firstDivergence(a, b []obs.DigestRecord) *streamDivergence {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i].Cycle != b[i].Cycle {
			return &streamDivergence{
				windowStart:   prevCycle(a, i),
				intervalCycle: min(a[i].Cycle, b[i].Cycle),
				note:          fmt.Sprintf("sample cycles disagree at record %d (%d vs %d) — different -digest-every?", i, a[i].Cycle, b[i].Cycle),
			}
		}
		if a[i].Machine != b[i].Machine {
			return &streamDivergence{windowStart: prevCycle(a, i), intervalCycle: a[i].Cycle}
		}
	}
	if len(a) != len(b) {
		longer := a
		if len(b) > len(a) {
			longer = b
		}
		return &streamDivergence{
			windowStart:   prevCycle(longer, n),
			intervalCycle: longer[n].Cycle,
			note:          fmt.Sprintf("one run sampled %d intervals, the other %d (runs end at different cycles)", len(a), len(b)),
		}
	}
	return nil
}

func prevCycle(recs []obs.DigestRecord, i int) uint64 {
	if i == 0 {
		return 0
	}
	return recs[i-1].Cycle
}

// lockstepNarrow re-runs both sides one Step at a time and compares machine
// digests at every memory-cycle boundary inside the divergence window,
// filling the report's exact-cycle and component fields.
func lockstepNarrow(rep *report, app string, cfgA, cfgB sim.Config, schA, schB mc.Scheme, seed int64, div *streamDivergence, stderr io.Writer) {
	prepare := func(cfg sim.Config, sch mc.Scheme) (*sim.GPU, error) {
		kern, err := workloads.New(app)
		if err != nil {
			return nil, err
		}
		return sim.Prepare(kern, cfg, sch, seed), nil
	}
	gA, err := prepare(cfgA, schA)
	if err != nil {
		rep.Note = joinNote(rep.Note, "lockstep setup failed: "+err.Error())
		return
	}
	defer gA.Close()
	gB, err := prepare(cfgB, schB)
	if err != nil {
		rep.Note = joinNote(rep.Note, "lockstep setup failed: "+err.Error())
		return
	}
	defer gB.Close()

	// The streams agreed at windowStart, so state is identical up to there:
	// fast-forward without comparing, then compare at every mem-cycle
	// boundary. intervalCycle 0 means "past the last sample" — run to the end.
	windowEnd := div.intervalCycle
	if windowEnd == 0 {
		windowEnd = ^uint64(0)
	} else {
		windowEnd += 2 * cfgA.Obs.DigestEvery // slack past the divergent sample
	}
	lastMem := uint64(0)
	for {
		doneA, errA := gA.Step()
		doneB, errB := gB.Step()
		if errA != nil || errB != nil {
			if (errA == nil) != (errB == nil) {
				reportDivergentStep(rep, gA, gB, "one side hit its cycle limit")
				return
			}
			rep.Note = joinNote(rep.Note, fmt.Sprintf("lockstep aborted: %v", errA))
			return
		}
		if doneA != doneB {
			reportDivergentStep(rep, gA, gB, "one side finished before the other")
			return
		}
		mem := gA.MemCycle()
		if gB.MemCycle() != mem {
			reportDivergentStep(rep, gA, gB, "memory clocks drifted apart")
			return
		}
		if (mem != lastMem && mem > div.windowStart) || doneA {
			if gA.MachineDigest() != gB.MachineDigest() {
				reportDivergentStep(rep, gA, gB, "")
				return
			}
		}
		lastMem = mem
		if doneA {
			rep.Note = joinNote(rep.Note, "lockstep re-run stayed identical to the end (non-reproducible divergence?)")
			return
		}
		if mem > windowEnd {
			rep.Note = joinNote(rep.Note, "lockstep re-run stayed identical through the window; reporting interval granularity only")
			return
		}
	}
}

// reportDivergentStep fills the exact-cycle fields from two GPUs stopped at
// the first divergent step: every divergent component path, the first of the
// deepest ones, and for each node of that depth the fields in which its
// dumps on the two sides differ.
func reportDivergentStep(rep *report, gA, gB *sim.GPU, note string) {
	rep.ExactCycle = gA.MemCycle()
	rep.ExactCoreCycle = gA.CoreCycle()
	rep.Note = joinNote(rep.Note, note)

	compsA := gA.ComponentDigests()
	byPath := make(map[string]uint64, len(compsA))
	for _, c := range gB.ComponentDigests() {
		byPath[c.Path] = c.Digest
	}
	var deepest []string
	depth := -1
	for _, c := range compsA {
		if d, ok := byPath[c.Path]; ok && d == c.Digest {
			continue
		}
		rep.Components = append(rep.Components, c.Path)
		switch pd := pathDepth(c.Path); {
		case pd > depth:
			deepest, depth = []string{c.Path}, pd
		case pd == depth:
			deepest = append(deepest, c.Path)
		}
	}
	if len(deepest) > 0 {
		rep.Deepest = deepest[0]
	}
	for _, path := range deepest {
		dumpA, _ := gA.StateDump(path)
		dumpB, _ := gB.StateDump(path)
		rep.Fields = append(rep.Fields, diffFields(path, dumpA, dumpB)...)
	}
}

// diffFields matches two dumps of node path by their "name=value" lines'
// names and returns the fields whose values differ, in A's order and then
// B's.
func diffFields(path, dumpA, dumpB string) []fieldDiff {
	var names []string
	vals := [2]map[string]string{{}, {}}
	for side, dump := range []string{dumpA, dumpB} {
		for _, line := range strings.Split(dump, "\n") {
			if name, v, ok := strings.Cut(line, "="); ok {
				names = append(names, name)
				vals[side][name] = v
			}
		}
	}
	var out []fieldDiff
	for _, name := range names {
		if a, b := vals[0][name], vals[1][name]; a != b {
			out = append(out, fieldDiff{Path: path, Field: name, A: a, B: b})
			delete(vals[0], name) // report each field once
			delete(vals[1], name)
		}
	}
	return out
}

// pathDepth orders component paths by specificity: each dot and bracket adds
// a level, so "partition[2].dram.bank[5]" outranks "partition[2].dram".
func pathDepth(p string) int {
	return strings.Count(p, ".") + strings.Count(p, "[")
}

func compareStreams(pathA, pathB string, rep *report) (int, error) {
	read := func(path string) ([]obs.DigestRecord, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		recs, err := obs.ReadDigestJSONL(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return recs, nil
	}
	recsA, err := read(pathA)
	if err != nil {
		return exitUsage, err
	}
	recsB, err := read(pathB)
	if err != nil {
		return exitUsage, err
	}
	rep.Mode = "stream"
	if len(recsA) > 0 {
		rep.Every = guessEvery(recsA)
	}
	div := firstDivergence(recsA, recsB)
	if div == nil {
		return exitClean, nil
	}
	rep.Diverged = true
	rep.WindowStart = div.windowStart
	rep.IntervalCycle = div.intervalCycle
	rep.Note = joinNote(div.note, "stream mode: re-run lazydiverge with the run flags for exact-cycle lockstep")
	return exitDiverged, nil
}

// guessEvery infers the sampling interval from the first records' spacing.
func guessEvery(recs []obs.DigestRecord) uint64 {
	if len(recs) >= 2 {
		return recs[1].Cycle - recs[0].Cycle
	}
	return recs[0].Cycle
}

func writeDump(path string, log *obs.DigestLog) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return log.WriteJSONL(f)
}

func joinNote(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	default:
		return a + "; " + b
	}
}

func emit(rep *report, jsonOut bool, stdout, stderr io.Writer) {
	if jsonOut {
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			fmt.Fprintln(stderr, "lazydiverge:", err)
		}
		return
	}
	if !rep.Diverged {
		fmt.Fprintln(stdout, "lazydiverge: no divergence")
		return
	}
	fmt.Fprintf(stdout, "lazydiverge: DIVERGENCE\n")
	fmt.Fprintf(stdout, "  window: agreed at mem cycle %d, first divergent sample at %d (every %d)\n",
		rep.WindowStart, rep.IntervalCycle, rep.Every)
	if rep.ExactCycle > 0 {
		fmt.Fprintf(stdout, "  exact: first divergent mem cycle %d (core cycle %d)\n",
			rep.ExactCycle, rep.ExactCoreCycle)
	}
	if len(rep.Components) > 0 {
		fmt.Fprintf(stdout, "  divergent components (%d): %s\n",
			len(rep.Components), strings.Join(rep.Components, ", "))
		fmt.Fprintf(stdout, "  deepest: %s\n", rep.Deepest)
	}
	for _, f := range rep.Fields {
		fmt.Fprintf(stdout, "  field %s.%s: A=%s B=%s\n", f.Path, f.Field, f.A, f.B)
	}
	if rep.Note != "" {
		fmt.Fprintf(stdout, "  note: %s\n", rep.Note)
	}
}
