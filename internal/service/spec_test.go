package service

import "testing"

// FuzzCanonicalize: no spec panics Canonicalize; an accepted spec's
// canonical form canonicalizes to the same key and id; spelling each
// defaultable zero field with its default changes nothing; and an accepted
// scheme's parameters are non-negative.
func FuzzCanonicalize(f *testing.F) {
	f.Add("MVT", "dyn-both", 0, 0, 0, int64(0), uint64(0), false, false, false)
	f.Add("SCP", "DMS(64)", 128, 8, 128, int64(1), uint64(1024), true, true, true)
	f.Add("MVT", "dms(-5)", 0, 0, 0, int64(0), uint64(0), false, false, false)
	f.Fuzz(func(t *testing.T, app, scheme string, delay, thrbl, queue int, seed int64,
		sampleEvery uint64, audit, quality, census bool) {
		spec := JobSpec{
			App: app, Scheme: scheme, Delay: delay, ThRBL: thrbl, Queue: queue, Seed: seed,
			Obs: ObsSpec{SampleEvery: sampleEvery, Audit: audit, Quality: quality, Census: census},
		}
		j, err := Canonicalize(spec)
		if err != nil {
			return
		}
		if j.Scheme.StaticDelay < 0 || j.Scheme.StaticThRBL < 0 {
			t.Fatalf("%+v accepted with a negative parameter: %+v", spec, j.Scheme)
		}
		again, err := Canonicalize(j.Spec)
		if err != nil {
			t.Fatalf("canonical form %+v rejected: %v", j.Spec, err)
		}
		if again.Key != j.Key || again.ID != j.ID {
			t.Fatalf("not idempotent: %q then %q", j.Key, again.Key)
		}
		spelled := spec
		if spelled.Delay == 0 {
			spelled.Delay = DefaultDelay
		}
		if spelled.ThRBL == 0 {
			spelled.ThRBL = DefaultThRBL
		}
		if spelled.Queue == 0 {
			spelled.Queue = DefaultQueue
		}
		if spelled.Seed == 0 {
			spelled.Seed = DefaultSeed
		}
		if spelled.Obs.SampleEvery == 0 {
			spelled.Obs.SampleEvery = DefaultSampleEvery
		}
		if d, err := Canonicalize(spelled); err != nil || d.ID != j.ID {
			t.Fatalf("defaults spelled out: %+v gives %v, %v; want id %s", spelled, d, err, j.ID)
		}
	})
}
