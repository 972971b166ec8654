package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// retire charges a request with the given per-cause vector and latency.
func retire(c *Census, charges map[StallCause]uint64) {
	var vec [NumStallCauses]uint64
	var lat uint64
	for cause, n := range charges {
		vec[cause] = n
		lat += n
	}
	c.Retire(lat, &vec)
}

func TestCensusRetireInvariant(t *testing.T) {
	c := NewCensus()
	c.EnsureBanks(2)
	retire(c, map[StallCause]uint64{StallQueued: 5, StallTRCD: 12, StallCAS: 12, StallBurst: 2})
	retire(c, map[StallCause]uint64{StallDMSHold: 128, StallVP: 2})
	if c.Requests != 2 {
		t.Fatalf("requests = %d", c.Requests)
	}
	if c.Attributed() != c.LatencyCycles {
		t.Fatalf("attributed %d != latency %d", c.Attributed(), c.LatencyCycles)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.StallHist[StallTRCD].Sum() != 12 || c.StallHist[StallDMSHold].Sum() != 128 {
		t.Fatal("per-cause stall attribution wrong")
	}
	// A latency that does not match its charge vector must be caught.
	var bad [NumStallCauses]uint64
	bad[StallQueued] = 3
	c.Retire(7, &bad)
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("mismatched retire not caught by CheckInvariants")
	}
}

func TestCensusResidencyInvariant(t *testing.T) {
	c := NewCensus()
	c.EnsureBanks(2)
	c.AddBankCycles(0, BankServing, 4)
	c.AddBankCycles(0, BankOpenIdle, 6)
	c.AddBankCycles(1, BankIdle, 10)
	c.AddCycles(10)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A skipped bank classification must be caught.
	c.AddBankCycles(0, BankOpenIdle, 1)
	c.AddCycles(1)
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("missing bank classification not caught")
	}
}

func TestCensusGapRuns(t *testing.T) {
	c := NewCensus()
	// advancing, 3 timing-waits, advancing, 2 idles.
	c.AddAdvancing(1)
	c.CloseGap(3, false)
	c.AddAdvancing(1)
	c.CloseGap(2, true)
	c.CloseGap(0, true) // an empty run is not a gap
	if c.PartCycles != 7 || c.Advancing != 2 || c.TimingWait != 3 || c.Idle != 2 {
		t.Fatalf("census = %+v", c)
	}
	if got := c.GapHist.Count(); got != 2 {
		t.Fatalf("gap count = %d, want 2 (runs of 3 and 2)", got)
	}
	if got := c.GapHist.Sum(); got != 5 {
		t.Fatalf("gap sum = %d, want 5", got)
	}
	if got := c.GapHist.Max(); got != 3 {
		t.Fatalf("gap max = %d, want 3", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := 5.0 / 7.0
	if got := c.SkippableFrac(); got != want {
		t.Fatalf("skippable frac = %g, want %g", got, want)
	}
}

func TestCensusMerge(t *testing.T) {
	a, b := NewCensus(), NewCensus()
	a.EnsureBanks(1)
	b.EnsureBanks(2)
	retire(a, map[StallCause]uint64{StallQueued: 4})
	retire(b, map[StallCause]uint64{StallTRP: 6})
	for _, c := range []*Census{a, b} {
		c.AddBankCycles(0, BankServing, 1)
		c.AddCycles(1)
		c.AddAdvancing(1)
		c.CloseGap(1, false)
	}
	b.AddBankCycles(1, BankIdle, 1) // bank 1 exists only in b; complete its row
	a.Merge(b)
	if a.Requests != 2 || a.LatencyCycles != 10 {
		t.Fatalf("merged totals: %d req, %d cycles", a.Requests, a.LatencyCycles)
	}
	if len(a.Residency) != 2 || a.Residency[1][BankIdle] != 1 || a.StallHist[StallTRP].Sum() != 6 {
		t.Fatal("merge did not grow/fold the residency matrix and stall histograms")
	}
	if a.PartCycles != 4 || a.Advancing != 2 || a.TimingWait != 2 {
		t.Fatalf("merged partition census: %+v", a)
	}
	if a.GapHist.Count() != 2 || a.GapHist.Sum() != 2 {
		t.Fatal("gap histograms not merged")
	}
	// Nil-safety both directions.
	var nilC *Census
	nilC.Merge(a)
	a.Merge(nil)
	if err := nilC.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCensusSummary(t *testing.T) {
	c := NewCensus()
	c.EnsureBanks(1)
	retire(c, map[StallCause]uint64{StallQueued: 10, StallTRCD: 30, StallCAS: 50, StallBurst: 10})
	c.AddBankCycles(0, BankServing, 1)
	c.AddCycles(1)
	c.AddAdvancing(1)
	s := c.Summary()
	if s.InvariantError != "" {
		t.Fatalf("unexpected invariant error: %s", s.InvariantError)
	}
	if s.AttributedCycles != 100 || s.LatencyCycles != 100 {
		t.Fatalf("summary totals: %+v", s)
	}
	var share float64
	for _, row := range s.Stalls {
		share += row.Share
		if row.Cause == "trcd" && row.Cycles != 30 {
			t.Fatalf("trcd cycles = %d", row.Cycles)
		}
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("stall shares sum to %g", share)
	}
	if len(s.Residency) != 1 || s.Residency[0].State != "serving" || s.Residency[0].Share != 1 {
		t.Fatalf("residency rollup: %+v", s.Residency)
	}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"skippable_frac", "attributed_cycles", "gap_p99"} {
		if !strings.Contains(string(blob), key) {
			t.Errorf("summary JSON missing %q", key)
		}
	}
	// A broken census must surface its violation in the artifact.
	c.StallHist[StallQueued].Observe(1)
	if bad := c.Summary(); bad.InvariantError == "" {
		t.Fatal("summary of broken census carries no invariant error")
	}
	// Nil summaries stay nil (census disabled).
	if (*Census)(nil).Summary() != nil {
		t.Fatal("nil census summary not nil")
	}
}

func TestCensusChannelSummary(t *testing.T) {
	c := NewCensus()
	c.EnsureBanks(2)
	retire(c, map[StallCause]uint64{StallTRAS: 7})
	c.AddBankCycles(0, BankOpenIdle, 1)
	c.AddBankCycles(1, BankPrecharging, 1)
	c.AddCycles(1)
	ch := c.ChannelSummary(3)
	if ch.Channel != 3 || ch.Requests != 1 || ch.LatencyCycles != 7 {
		t.Fatalf("channel summary: %+v", ch)
	}
	if ch.StallCycles["tras"] != 7 {
		t.Fatalf("stall map: %+v", ch.StallCycles)
	}
	if len(ch.Banks) != 2 || ch.Banks[0].OpenIdle != 1 || ch.Banks[1].Precharging != 1 {
		t.Fatalf("bank rows: %+v", ch.Banks)
	}
}
