package sim_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"lazydram/internal/mc"
	"lazydram/internal/obs"
	"lazydram/internal/sim"
	"lazydram/internal/stats"
)

// TestTelemetryEndToEnd runs a real workload with the full observability
// stack enabled and checks the digest is internally consistent: every
// lifecycle stage that must fire did, the time series covers the whole run at
// the configured interval, and the command trace replays real DRAM activity.
func TestTelemetryEndToEnd(t *testing.T) {
	const every = 256
	res := simulate(t, "SCP", mc.DynBoth, func(cfg *sim.Config) {
		cfg.Obs = obs.Options{Latency: true, SampleEvery: every, TraceCapacity: 1 << 14}
	})
	tel := res.Telemetry
	if tel == nil {
		t.Fatal("Telemetry nil with Obs enabled")
	}

	stages := make(map[string]obs.StageSummary, len(tel.Stages))
	for _, s := range tel.Stages {
		stages[s.Stage] = s
	}
	for _, name := range []string{"icnt.req", "mc.queue", "dram.service", "icnt.reply", "total"} {
		s, ok := stages[name]
		if !ok || s.Count == 0 {
			t.Errorf("stage %s missing or empty", name)
			continue
		}
		if s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.Max {
			t.Errorf("stage %s percentiles not monotone: p50=%d p90=%d p99=%d max=%d",
				name, s.P50, s.P90, s.P99, s.Max)
		}
	}
	// Every L2 miss crosses the MC queue exactly once (reads; writes add
	// more), and every retired read is serviced by DRAM or dropped.
	if q, d := stages["mc.queue"].Count, stages["dram.service"].Count; q < d {
		t.Errorf("mc.queue count %d < dram.service count %d", q, d)
	}
	// The total stage spans the whole round trip, so its p50 must dominate
	// every other core-clock stage's p50.
	if tot := stages["total"]; tot.P50 < stages["icnt.reply"].P50 {
		t.Errorf("total p50 %d < icnt.reply p50 %d", tot.P50, stages["icnt.reply"].P50)
	}

	// Time series: one sample per full interval plus one for the partial tail.
	want := (res.Run.Mem.Cycles + every - 1) / every
	if got := uint64(len(tel.Series)); got != want {
		t.Errorf("sample count %d, want ceil(%d/%d) = %d",
			got, res.Run.Mem.Cycles, uint64(every), want)
	}
	if len(tel.Series) < 2 {
		t.Fatal("too few samples to check ordering")
	}
	for i := 1; i < len(tel.Series); i++ {
		if tel.Series[i].MemCycle <= tel.Series[i-1].MemCycle {
			t.Fatalf("series not strictly increasing at %d", i)
		}
	}
	if last := tel.Series[len(tel.Series)-1]; last.MemCycle != res.Run.Mem.Cycles {
		t.Errorf("last sample at mem cycle %d, want run end %d", last.MemCycle, res.Run.Mem.Cycles)
	}

	// Command trace: total issued commands must at least cover the stat
	// block's activations + reads + writes (plus precharges).
	if res.Trace == nil {
		t.Fatal("Trace nil with TraceCapacity set")
	}
	minCmds := res.Run.Mem.Activations + res.Run.Mem.Reads + res.Run.Mem.Writes
	if res.Trace.Total() < minCmds {
		t.Errorf("trace total %d < activations+reads+writes %d", res.Trace.Total(), minCmds)
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("chrome trace has no events")
	}

	// The merged run stats must also satisfy their own invariants.
	if err := res.Run.Mem.Validate(); err != nil {
		t.Errorf("run stats failed validation: %v", err)
	}

	// The whole telemetry digest must round-trip through JSON.
	if _, err := json.Marshal(tel); err != nil {
		t.Fatalf("telemetry not serializable: %v", err)
	}
}

// TestBankAttributionEndToEnd runs a full workload and checks the per-bank
// counter matrix is an exact decomposition of the run: bank counters sum to
// their channel's aggregates, the channel snapshots merge back into
// Run.Mem, the per-channel energy attribution sums to Run.MemEnergy, and
// the live metrics registry's final publish agrees with the stat block.
func TestBankAttributionEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	res := simulate(t, "SCP", mc.DynBoth, func(cfg *sim.Config) {
		cfg.Obs = obs.Options{Metrics: reg}
	})

	if len(res.Channels) != res.Run.Mem.NumChannels {
		t.Fatalf("channel snapshots %d, want %d", len(res.Channels), res.Run.Mem.NumChannels)
	}

	// Per channel: bank sums equal the channel aggregates, exactly.
	var remerged stats.Mem
	for c := range res.Channels {
		ch := &res.Channels[c]
		if err := ch.Validate(); err != nil {
			t.Fatalf("channel %d snapshot invalid: %v", c, err)
		}
		bt := ch.BankTotals()
		if bt.Activations != ch.Activations || bt.Reads != ch.Reads ||
			bt.Writes != ch.Writes || bt.BusBusy != ch.DataBusBusy ||
			bt.AMSDrops != ch.Dropped {
			t.Fatalf("channel %d: bank totals %+v do not sum to channel aggregates", c, bt)
		}
		for b := range ch.Banks {
			bk := &ch.Banks[b]
			if bk.RowHits+bk.RowMisses+bk.RowConflicts != bk.Reads+bk.Writes {
				t.Fatalf("ch%d.b%d: hit/miss/conflict %d+%d+%d != column accesses %d",
					c, b, bk.RowHits, bk.RowMisses, bk.RowConflicts, bk.Reads+bk.Writes)
			}
		}
		remerged.Merge(ch)
	}

	// The snapshots are the exact decomposition of the merged run stats.
	if remerged.Activations != res.Run.Mem.Activations ||
		remerged.Reads != res.Run.Mem.Reads ||
		remerged.Writes != res.Run.Mem.Writes ||
		remerged.Dropped != res.Run.Mem.Dropped {
		t.Fatalf("remerged channels %+v != Run.Mem %+v", remerged, res.Run.Mem)
	}
	if !reflect.DeepEqual(remerged.Banks, res.Run.Mem.Banks) {
		t.Fatal("remerged bank matrix differs from Run.Mem.Banks")
	}
	if res.Run.Mem.Activations == 0 {
		t.Fatal("run performed no activations; test is vacuous")
	}

	// Energy attribution decomposes the aggregate model exactly.
	if len(res.EnergyByChannel) != len(res.Channels) {
		t.Fatalf("attribution covers %d channels, want %d",
			len(res.EnergyByChannel), len(res.Channels))
	}
	var totalNJ, rowNJ float64
	for _, ce := range res.EnergyByChannel {
		totalNJ += ce.TotalNJ
		rowNJ += ce.RowNJ
	}
	if math.Abs(totalNJ-res.Run.MemEnergy) > 1e-6*res.Run.MemEnergy {
		t.Errorf("attribution total %v != Run.MemEnergy %v", totalNJ, res.Run.MemEnergy)
	}
	if math.Abs(rowNJ-res.Run.RowEnergy) > 1e-6*res.Run.RowEnergy {
		t.Errorf("attribution row total %v != Run.RowEnergy %v", rowNJ, res.Run.RowEnergy)
	}

	// The registry's final publish reflects the finished run: sum the
	// per-bank activation children via the expvar export and compare.
	var buf bytes.Buffer
	if err := reg.WriteExpvar(&buf); err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.Unmarshal(buf.Bytes(), &vars); err != nil {
		t.Fatalf("expvar export invalid: %v", err)
	}
	bankActs, ok := vars["lazysim_bank_activations_total"].(map[string]any)
	if !ok {
		t.Fatal("registry missing lazysim_bank_activations_total")
	}
	var published float64
	for _, v := range bankActs {
		published += v.(float64)
	}
	if published != float64(res.Run.Mem.Activations) {
		t.Errorf("registry bank activations %v != Run.Mem.Activations %d",
			published, res.Run.Mem.Activations)
	}
	if got := vars["lazysim_instructions_total"]; got != float64(res.Run.Instructions) {
		t.Errorf("registry instructions %v != Run.Instructions %d", got, res.Run.Instructions)
	}
	if got := vars["lazysim_ipc"]; got != res.Run.IPC() {
		t.Errorf("registry ipc %v != Run.IPC %v", got, res.Run.IPC())
	}
}

// TestMetricsDoNotPerturbRun: enabling the live registry must not change
// simulation results.
func TestMetricsDoNotPerturbRun(t *testing.T) {
	off := simulate(t, "MVT", mc.DynBoth)
	on := simulate(t, "MVT", mc.DynBoth, func(cfg *sim.Config) {
		cfg.Obs = obs.Options{Metrics: obs.NewRegistry()}
	})
	if off.Run.CoreCycles != on.Run.CoreCycles ||
		off.Run.Mem.Activations != on.Run.Mem.Activations ||
		off.Run.AppError != on.Run.AppError {
		t.Fatalf("metrics registry perturbed the run: %+v vs %+v", off.Run, on.Run)
	}
}

// TestTelemetryDisabledIsFree checks the zero-value Obs config produces no
// telemetry and an identical simulation result.
func TestTelemetryDisabledIsFree(t *testing.T) {
	off := simulate(t, "SCP", mc.DynBoth)
	if off.Telemetry != nil || off.Trace != nil {
		t.Fatal("telemetry produced with Obs disabled")
	}
	on := simulate(t, "SCP", mc.DynBoth, func(cfg *sim.Config) {
		cfg.Obs = obs.Options{Latency: true, SampleEvery: 512, TraceCapacity: 1 << 12}
	})
	// Observability must never perturb the simulation itself.
	if off.Run.CoreCycles != on.Run.CoreCycles || off.Run.Mem.Activations != on.Run.Mem.Activations {
		t.Errorf("telemetry changed the run: cycles %d vs %d, acts %d vs %d",
			off.Run.CoreCycles, on.Run.CoreCycles,
			off.Run.Mem.Activations, on.Run.Mem.Activations)
	}
	if len(off.Output) != len(on.Output) {
		t.Fatalf("output lengths differ")
	}
	for i := range off.Output {
		if off.Output[i] != on.Output[i] {
			t.Fatalf("output diverged at %d", i)
		}
	}
}
