// Package rundoc owns the machine-readable document schemas: the run
// document (Doc) emitted by `lazysim -json` and served by the lazyd daemon,
// and the sweep document (SweepDoc) of `lazysim -sweep -json` and
// `experiments -runlog`. lazycmp gates on them through Flatten and
// lazyreport decodes into them, so the Go types are the only description of
// the document shape. Keeping construction here too is what makes "the
// daemon serves exactly what the CLI prints" true by construction: both call
// Build on the same sim.Result and encode the same struct.
//
// Two struct tags beside the json tags steer Flatten: gate:"-" keeps a field
// (and everything under it) out of the regression gate, and gate:"key" marks
// the identity fields that name a list element in the flattened key.
package rundoc

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"time"

	"lazydram/internal/buildinfo"
	"lazydram/internal/energy"
	"lazydram/internal/obs"
	"lazydram/internal/sim"
	"lazydram/internal/stats"
)

// Meta carries document provenance (ungated, so baselines recorded on
// different commits don't churn).
type Meta struct {
	Build buildinfo.Build `json:"build"`
}

// Doc is the machine-readable run summary: the same totals as the text stat
// block, plus the telemetry digest. Field names are the stable contract
// lazycmp flattens; never rename them.
type Doc struct {
	Meta         Meta    `json:"meta" gate:"-"`
	App          string  `json:"app"`
	Scheme       string  `json:"scheme"`
	Seed         int64   `json:"seed" gate:"-"`
	CoreCycles   uint64  `json:"core_cycles"`
	Instructions uint64  `json:"instructions"`
	IPC          float64 `json:"ipc"`

	Activations uint64  `json:"activations"`
	Reads       uint64  `json:"reads"`
	Writes      uint64  `json:"writes"`
	AvgRBL      float64 `json:"avg_rbl"`
	BWUtil      float64 `json:"bwutil"`
	Coverage    float64 `json:"coverage"`
	Dropped     uint64  `json:"dropped"`
	QueueOcc    float64 `json:"queue_occ"`

	RowEnergyNJ float64 `json:"row_energy_nj"`
	MemEnergyNJ float64 `json:"mem_energy_nj"`
	AppError    float64 `json:"app_error"`

	FinalDelay int     `json:"final_delay"`
	FinalThRBL int     `json:"final_th_rbl"`
	MeanDelay  float64 `json:"mean_delay"`
	MeanThRBL  float64 `json:"mean_th_rbl"`

	L1Accesses uint64 `json:"l1_accesses"`
	L1Misses   uint64 `json:"l1_misses"`
	L2Accesses uint64 `json:"l2_accesses"`
	L2Misses   uint64 `json:"l2_misses"`

	VPPredictions uint64 `json:"vp_predictions"`
	VPFallbacks   uint64 `json:"vp_fallbacks"`

	// WallMS is host wall time, noise to a gate.
	WallMS float64 `json:"wall_ms" gate:"-"`

	// EnergyByChannel is the per-channel × per-bank energy attribution;
	// HottestBanks the top-N banks by row energy across the whole system, a
	// derived view whose membership may flap on ties.
	EnergyByChannel []energy.ChannelEnergy `json:"energy_by_channel,omitempty"`
	HottestBanks    []energy.HotBank       `json:"hottest_banks,omitempty" gate:"-"`

	Telemetry *obs.Telemetry `json:"telemetry,omitempty"`
}

// Build assembles the document from a finished run.
func Build(r *stats.Run, res *sim.Result, seed int64, wall time.Duration, topBanks int) Doc {
	ch := r.Mem.Channels()
	if ch < 1 {
		ch = 1
	}
	occ := 0.0
	if r.Mem.Cycles > 0 {
		occ = float64(r.Mem.QueueOccSum) / float64(r.Mem.Cycles*uint64(ch))
	}
	return Doc{
		Meta:         Meta{Build: buildinfo.Get()},
		App:          r.App,
		Scheme:       r.Scheme,
		Seed:         seed,
		CoreCycles:   r.CoreCycles,
		Instructions: r.Instructions,
		IPC:          r.IPC(),
		Activations:  r.Mem.Activations,
		Reads:        r.Mem.Reads,
		Writes:       r.Mem.Writes,
		AvgRBL:       r.Mem.AvgRBL(),
		BWUtil:       r.Mem.BWUtil(),
		Coverage:     r.Mem.Coverage(),
		Dropped:      r.Mem.Dropped,
		QueueOcc:     occ,
		RowEnergyNJ:  r.RowEnergy,
		MemEnergyNJ:  r.MemEnergy,
		AppError:     r.AppError,
		FinalDelay:   r.FinalDelay,
		FinalThRBL:   r.FinalThRBL,
		MeanDelay:    r.Mem.MeanDelay(),
		MeanThRBL:    r.Mem.MeanThRBL(),
		L1Accesses:   r.L1Accesses,
		L1Misses:     r.L1Misses,
		L2Accesses:   r.L2Accesses,
		L2Misses:     r.L2Misses,

		VPPredictions: res.VPPredictions,
		VPFallbacks:   res.VPFallbacks,
		WallMS:        float64(wall.Microseconds()) / 1000,

		EnergyByChannel: res.EnergyByChannel,
		HottestBanks:    energy.TopBanks(res.EnergyByChannel, topBanks),

		Telemetry: res.Telemetry,
	}
}

// Encode serializes the document exactly as `lazysim -json` prints it: one
// compact encoding/json object terminated by a newline. The daemon caches
// and serves these bytes verbatim, so a cached result is byte-identical to
// the stream a direct CLI run would have produced.
func Encode(d Doc) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(d); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SweepRow is one run's summary in a sweep document: the same columns as the
// `lazysim -sweep` text table.
type SweepRow struct {
	App         string  `json:"app" gate:"key"`
	Scheme      string  `json:"scheme" gate:"key"`
	IPC         float64 `json:"ipc"`
	Activations uint64  `json:"activations"`
	RowEnergyNJ float64 `json:"row_energy_nj"`
	AppError    float64 `json:"app_error"`
	Coverage    float64 `json:"coverage"`
	// WallSeconds/CyclesPerSec report the run's execution time even without
	// -runlog (deduped rows share the executing run's time). Wall-clock is
	// nondeterministic, so neither is gated.
	WallSeconds  float64 `json:"wall_seconds" gate:"-"`
	CyclesPerSec float64 `json:"cycles_per_sec" gate:"-"`
}

// SweepDoc is the sweep document: per-run rows in declaration order (absent
// from `experiments -runlog`, which has no row view) plus the run-lifecycle
// summary block.
type SweepDoc struct {
	Meta  Meta              `json:"meta" gate:"-"`
	Seed  int64             `json:"seed" gate:"-"`
	Runs  []SweepRow        `json:"runs,omitempty"`
	Sweep *obs.SweepSummary `json:"sweep,omitempty"`
}

// WriteRunLog exports a sweep's run log next to prefix: PREFIX.trace.json
// (Chrome trace_event, one track per worker slot), PREFIX.events.jsonl (one
// lifecycle event per line) and PREFIX.sweep.json (doc).
func WriteRunLog(prefix string, rl *obs.RunLog, doc SweepDoc) error {
	for _, f := range []struct {
		suffix string
		write  func(io.Writer) error
	}{
		{".trace.json", rl.WriteChromeTrace},
		{".events.jsonl", rl.WriteEventsJSONL},
		{".sweep.json", func(w io.Writer) error { return json.NewEncoder(w).Encode(doc) }},
	} {
		out, err := os.Create(prefix + f.suffix)
		if err != nil {
			return err
		}
		err = f.write(out)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
