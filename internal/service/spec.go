// Package service is the simulation-as-a-service layer behind the lazyd
// daemon: an HTTP/JSON API where clients submit jobs (application, scheme,
// configuration, seed, observability options), a bounded queue drained by
// exp.Runner workers, and a content-addressed result cache keyed by the
// canonical run key. Identity is exp.RunKey end to end — the Runner's
// singleflight map, the service-level job dedupe, and the cache all agree on
// it, so two identical submissions execute exactly one simulation and a
// repeat submission returns the exact cached document bytes.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"lazydram/internal/exp"
	"lazydram/internal/mc"
	"lazydram/internal/obs"
	"lazydram/internal/sim"
)

// Defaults applied during canonicalization. They mirror the lazysim flag
// defaults so an omitted field and an explicitly-default field canonicalize
// to the same job (and therefore the same run key and cache entry).
const (
	DefaultDelay       = 128  // -delay
	DefaultThRBL       = 8    // -thrbl
	DefaultQueue       = 128  // -queue
	DefaultSeed        = 1    // -seed
	DefaultSampleEvery = 1024 // -sample-every
	defaultAuditCap    = 1 << 16
	// topBanks is the hottest-banks list length in the result document,
	// pinned to the lazysim -top-banks default (it is not a job field: the
	// list is derived presentation, excluded from lazycmp gating).
	topBanks = 8
)

// ObsSpec selects per-run telemetry. The zero value matches what a plain
// `lazysim -json` run collects (latency histograms plus the time-series
// sampler at its default interval), so default jobs produce the same
// document a default CLI run prints.
type ObsSpec struct {
	// SampleEvery is the time-series sampling interval in memory cycles
	// (0: the lazysim default, 1024).
	SampleEvery uint64 `json:"sample_every,omitempty"`
	// Audit collects the scheduler decision audit.
	Audit bool `json:"audit,omitempty"`
	// Quality scores every AMS-dropped line against ground truth.
	Quality bool `json:"quality,omitempty"`
	// Census collects the cycle census / latency-provenance layer.
	Census bool `json:"census,omitempty"`
}

// JobSpec is the client-facing job description posted to /v1/jobs. Zero
// fields take the lazysim flag defaults.
type JobSpec struct {
	// App is the workload name (required — see lazysim -list).
	App string `json:"app"`
	// Scheme is the scheduling-scheme name as accepted by lazysim -scheme
	// (required): baseline, static-dms, dyn-dms, static-ams, dyn-ams,
	// static-both, dyn-both.
	Scheme string `json:"scheme"`
	// Delay is the static DMS delay in cycles (0: 128).
	Delay int `json:"delay,omitempty"`
	// ThRBL is the static AMS Th_RBL (0: 8).
	ThRBL int `json:"th_rbl,omitempty"`
	// Queue is the pending-queue size (0: 128).
	Queue int `json:"queue,omitempty"`
	// Seed drives workload input generation (0: 1).
	Seed int64 `json:"seed,omitempty"`
	// Obs selects per-run telemetry.
	Obs ObsSpec `json:"obs,omitempty"`
}

// Job is a fully canonicalized job: the resolved scheme and runner variant,
// plus the canonical run key and its content-address. Built by Canonicalize;
// never constructed by hand.
type Job struct {
	Spec    JobSpec // canonicalized: every defaultable field resolved
	Scheme  mc.Scheme
	Variant exp.Variant

	// Key is the canonical run key (exp.RunKey) — the shared identity across
	// the Runner's singleflight, the job dedupe, and the result cache.
	Key string
	// ID is the content address: hex SHA-256 of Key. It doubles as the job
	// id in the HTTP API, so identical submissions get identical ids.
	ID string
}

// obsTag serializes the observability selection into the Variant tag in a
// fixed field order. The tag is part of the run key, so jobs that differ
// only in telemetry memoize and cache independently (telemetry changes the
// document, not the simulation outcome).
func obsTag(o ObsSpec) string {
	b := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	return fmt.Sprintf("obs:se%d,a%d,q%d,c%d",
		o.SampleEvery, b(o.Audit), b(o.Quality), b(o.Census))
}

// obsOptions maps the selection onto sim.Config.Obs exactly as the lazysim
// -json path does: latency histograms always on, audit ring at the default
// capacity when enabled.
func obsOptions(o ObsSpec) obs.Options {
	oo := obs.Options{Latency: true, SampleEvery: o.SampleEvery}
	if o.Audit {
		oo.AuditCapacity = defaultAuditCap
	}
	oo.Quality = o.Quality
	oo.Census = o.Census
	return oo
}

// Canonicalize validates the spec, resolves every defaultable field, and
// derives the run key and content address. The returned Job's Spec is the
// canonical form: two specs that describe the same simulation — whether by
// omission or by explicitly passing a default — produce identical Jobs.
func Canonicalize(spec JobSpec) (*Job, error) {
	if spec.App == "" {
		return nil, fmt.Errorf("job: app is required")
	}
	if spec.Scheme == "" {
		return nil, fmt.Errorf("job: scheme is required")
	}
	if spec.Delay == 0 {
		spec.Delay = DefaultDelay
	}
	if spec.ThRBL == 0 {
		spec.ThRBL = DefaultThRBL
	}
	if spec.Queue == 0 {
		spec.Queue = DefaultQueue
	}
	if spec.Seed == 0 {
		spec.Seed = DefaultSeed
	}
	if spec.Obs.SampleEvery == 0 {
		spec.Obs.SampleEvery = DefaultSampleEvery
	}
	if spec.Delay < 0 || spec.ThRBL < 0 || spec.Queue < 0 || spec.Seed < 0 {
		return nil, fmt.Errorf("job: negative parameter")
	}
	scheme, err := mc.ParseScheme(spec.Scheme, spec.Delay, spec.ThRBL)
	if err != nil {
		return nil, fmt.Errorf("job: %w", err)
	}
	// Spell the spec with the scheme's name, as the run key does, so that
	// aliases (dms, DMS(64), dyn-both) and parameters the scheme ignores (a
	// baseline's delay) canonicalize to the spec of the same key. The name
	// keeps a zero static parameter (dms(0)), which the defaulting above
	// would otherwise turn into 128 on the next pass.
	spec.Scheme = strings.ToLower(scheme.Name())
	spec.Delay, spec.ThRBL = DefaultDelay, DefaultThRBL
	if scheme.DMS == mc.Static {
		spec.Delay = scheme.StaticDelay
	}
	if scheme.AMS == mc.Static {
		spec.ThRBL = scheme.StaticThRBL
	}

	o := spec.Obs
	v := exp.Variant{
		QueueSize: spec.Queue,
		Seed:      spec.Seed,
		Tag:       obsTag(o),
		Mutate:    func(cfg *sim.Config) { cfg.Obs = obsOptions(o) },
	}
	key := exp.RunKey(spec.App, scheme, v, spec.Seed)
	sum := sha256.Sum256([]byte(key))
	return &Job{
		Spec:    spec,
		Scheme:  scheme,
		Variant: v,
		Key:     key,
		ID:      hex.EncodeToString(sum[:]),
	}, nil
}
