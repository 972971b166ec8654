package service

import "testing"

// FuzzCanonicalize: no spec panics Canonicalize; an accepted spec's
// canonical form canonicalizes to itself, with the same key and id; spelling each
// defaultable zero field with its default changes nothing; and an accepted
// scheme's parameters are non-negative.
func FuzzCanonicalize(f *testing.F) {
	f.Add("MVT", "dyn-both", 0, 0, 0, int64(0), uint64(0), false, false, false)
	f.Add("SCP", "DMS(64)", 128, 8, 128, int64(1), uint64(1024), true, true, true)
	f.Add("MVT", "dms(-5)", 0, 0, 0, int64(0), uint64(0), false, false, false)
	f.Add("SCP", "DMS(0)", 0, 0, 0, int64(0), uint64(0), false, false, false)
	f.Add("SCP", "AMS(0)", 0, 0, 0, int64(0), uint64(0), false, false, false)
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
		if again.Key != j.Key || again.ID != j.ID || again.Spec != j.Spec {
			t.Fatalf("not idempotent: %q %+v then %q %+v", j.Key, j.Spec, again.Key, again.Spec)
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

// FuzzRunKey: the run key identifies exactly the canonical spec. Two accepted
// specs have equal keys if and only if their canonical forms are equal, so
// neither a scheme alias nor a parameter the scheme ignores splits one
// simulation into two cache entries, and no two distinct jobs share one.
func FuzzRunKey(f *testing.F) {
	f.Fuzz(func(t *testing.T,
		app1, scheme1 string, delay1, thrbl1, queue1 int, seed1 int64, se1 uint64, audit1, quality1, census1 bool,
		app2, scheme2 string, delay2, thrbl2, queue2 int, seed2 int64, se2 uint64, audit2, quality2, census2 bool) {
		j1, err := Canonicalize(JobSpec{
			App: app1, Scheme: scheme1, Delay: delay1, ThRBL: thrbl1, Queue: queue1, Seed: seed1,
			Obs: ObsSpec{SampleEvery: se1, Audit: audit1, Quality: quality1, Census: census1},
		})
		if err != nil {
			return
		}
		j2, err := Canonicalize(JobSpec{
			App: app2, Scheme: scheme2, Delay: delay2, ThRBL: thrbl2, Queue: queue2, Seed: seed2,
			Obs: ObsSpec{SampleEvery: se2, Audit: audit2, Quality: quality2, Census: census2},
		})
		if err != nil {
			return
		}
		if (j1.Spec == j2.Spec) != (j1.Key == j2.Key) || (j1.Key == j2.Key) != (j1.ID == j2.ID) {
			t.Fatalf("canonical specs equal=%v, keys equal=%v, ids equal=%v:\n%+v key %q\n%+v key %q",
				j1.Spec == j2.Spec, j1.Key == j2.Key, j1.ID == j2.ID, j1.Spec, j1.Key, j2.Spec, j2.Key)
		}
	})
}
