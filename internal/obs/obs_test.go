package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracle returns the nearest-rank percentile from a sorted copy of xs.
func oracle(xs []uint64, p float64) uint64 {
	c := append([]uint64(nil), xs...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	rank := int(p / 100 * float64(len(c)))
	if rank < 1 {
		rank = 1
	}
	if rank > len(c) {
		rank = len(c)
	}
	return c[rank-1]
}

func checkPercentiles(t *testing.T, name string, xs []uint64) {
	t.Helper()
	var h Histogram
	for _, x := range xs {
		h.Observe(x)
	}
	for _, p := range []float64{50, 90, 99, 99.9} {
		got := h.Percentile(p)
		want := oracle(xs, p)
		// The log-linear buckets bound relative error by 2^-(subBits-1); allow
		// a little extra for rank discretization at the bucket edge.
		tol := 0.02*float64(want) + 1
		if math.Abs(float64(got)-float64(want)) > tol {
			t.Errorf("%s: p%v = %d, oracle %d (tol %.1f)", name, p, got, want, tol)
		}
	}
}

func TestHistogramPercentileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	uniform := make([]uint64, 20000)
	for i := range uniform {
		uniform[i] = uint64(rng.Intn(1_000_000))
	}
	checkPercentiles(t, "uniform", uniform)

	// Heavy-tailed: mimics latency distributions with long DMS-aged tails.
	exp := make([]uint64, 20000)
	for i := range exp {
		exp[i] = uint64(rng.ExpFloat64() * 5000)
	}
	checkPercentiles(t, "exponential", exp)

	small := make([]uint64, 5000)
	for i := range small {
		small[i] = uint64(rng.Intn(100)) // exact-bucket region
	}
	checkPercentiles(t, "small", small)
}

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for v := uint64(0); v < nSub; v++ {
		h.Observe(v)
	}
	// In the exact region every bucket holds one value, so nearest-rank
	// percentiles are exact.
	if got := h.Percentile(50); got != 63 {
		t.Errorf("p50 of 0..127 = %d, want 63", got)
	}
	if got := h.Percentile(100); got != 127 {
		t.Errorf("p100 of 0..127 = %d, want 127", got)
	}
}

func TestHistogramClamping(t *testing.T) {
	var h Histogram
	huge := []uint64{maxTracked + 1, maxTracked * 2, math.MaxUint64}
	for _, v := range huge {
		h.Observe(v)
	}
	if h.Count() != uint64(len(huge)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(huge))
	}
	if h.Max() != math.MaxUint64 {
		t.Errorf("Max = %d, want MaxUint64", h.Max())
	}
	// All landed in the top bucket; percentiles stay within [top-bucket lo, Max].
	lo, _ := bucketBounds(numBuckets - 1)
	for _, p := range []float64{50, 99, 100} {
		got := h.Percentile(p)
		if got < lo || got > h.Max() {
			t.Errorf("p%v = %d outside clamp range [%d, %d]", p, got, lo, h.Max())
		}
	}
}

func TestBucketBoundsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		v := rng.Uint64() % maxTracked
		idx := bucketIdx(v)
		lo, hi := bucketBounds(idx)
		if v < lo || v >= hi {
			t.Fatalf("value %d mapped to bucket %d = [%d, %d)", v, idx, lo, hi)
		}
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("value %d mapped out of range: %d", v, idx)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, both Histogram
	for v := uint64(0); v < 1000; v++ {
		a.Observe(v)
		b.Observe(v * 17)
		both.Observe(v)
		both.Observe(v * 17)
	}
	a.Merge(&b)
	if a.Count() != both.Count() || a.Sum() != both.Sum() || a.Max() != both.Max() {
		t.Fatalf("merge mismatch: count %d/%d sum %d/%d", a.Count(), both.Count(), a.Sum(), both.Sum())
	}
	if a.Percentile(90) != both.Percentile(90) {
		t.Errorf("merged p90 %d != direct p90 %d", a.Percentile(90), both.Percentile(90))
	}
}

func TestSamplerIntervalAndPartialWindow(t *testing.T) {
	probeWindows := []uint64(nil)
	probe := func(w uint64) Sample {
		probeWindows = append(probeWindows, w)
		return Sample{MemCycle: w}
	}

	s := NewSampler(100)
	for c := uint64(1); c <= 1050; c++ {
		s.Tick(c, probe)
	}
	if got := len(s.Samples()); got != 10 {
		t.Fatalf("after 1050 cycles at every=100: %d samples, want 10", got)
	}
	s.Flush(1050, probe)
	if got := len(s.Samples()); got != 11 {
		t.Fatalf("after flush: %d samples, want 11 (10 full + 1 partial)", got)
	}
	for i, w := range probeWindows[:10] {
		if w != 100 {
			t.Errorf("window %d = %d, want 100", i, w)
		}
	}
	if probeWindows[10] != 50 {
		t.Errorf("partial window = %d, want 50", probeWindows[10])
	}
	// Flush at an exact boundary adds nothing.
	s2 := NewSampler(100)
	for c := uint64(1); c <= 1000; c++ {
		s2.Tick(c, probe)
	}
	s2.Flush(1000, probe)
	if got := len(s2.Samples()); got != 10 {
		t.Fatalf("exact boundary: %d samples, want 10", got)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Observe(StageTotal, 42) // must not panic
	if tr.Stages() != nil || tr.Hist(StageTotal) != nil {
		t.Error("nil tracer leaked state")
	}
	var s *Sampler
	s.Tick(100, nil)
	s.Flush(100, nil)
	if s.Samples() != nil || s.Every() != 0 {
		t.Error("nil sampler leaked state")
	}
	var ct *CmdTrace
	ct.Add(CmdACT, 0, 0, 1, 1)
	if ct.Total() != 0 || ct.Dropped() != 0 || ct.Commands() != nil {
		t.Error("nil trace leaked state")
	}
	var c *Collector
	if c.Telemetry() != nil {
		t.Error("nil collector produced telemetry")
	}
	if NewCollector(Options{}, 4) != nil {
		t.Error("disabled options produced a collector")
	}
}

func TestCmdTraceRing(t *testing.T) {
	tr := NewCmdTrace(4)
	for i := 0; i < 6; i++ {
		tr.Add(CmdACT, 0, i, int64(i), uint64(i))
	}
	if tr.Total() != 6 || tr.Dropped() != 2 {
		t.Fatalf("total=%d dropped=%d, want 6/2", tr.Total(), tr.Dropped())
	}
	cmds := tr.Commands()
	if len(cmds) != 4 {
		t.Fatalf("retained %d, want 4", len(cmds))
	}
	for i, c := range cmds {
		if c.Cycle != uint64(i+2) {
			t.Errorf("cmd %d cycle = %d, want %d (oldest-first order)", i, c.Cycle, i+2)
		}
	}
}

func TestChromeTraceLoads(t *testing.T) {
	tr := NewCmdTrace(16)
	tr.Add(CmdACT, 0, 3, 17, 100)
	tr.Add(CmdRD, 0, 3, 17, 112)
	tr.Add(CmdPRE, 1, 3, 17, 140)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Name != "ACT" || doc.TraceEvents[0].Ph != "X" {
		t.Errorf("unexpected first event: %+v", doc.TraceEvents[0])
	}
	if doc.TraceEvents[2].Pid != 1 {
		t.Errorf("channel should map to pid: %+v", doc.TraceEvents[2])
	}
}

func TestJSONLTrace(t *testing.T) {
	tr := NewCmdTrace(8)
	tr.Add(CmdWR, 2, 5, 99, 7)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Cycle   uint64 `json:"cycle"`
		Cmd     string `json:"cmd"`
		Channel int    `json:"channel"`
		Bank    int    `json:"bank"`
		Row     int64  `json:"row"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &line); err != nil {
		t.Fatalf("jsonl line is not valid JSON: %v", err)
	}
	if line.Cmd != "WR" || line.Row != 99 || line.Channel != 2 || line.Bank != 5 {
		t.Errorf("unexpected line: %+v", line)
	}
}

// TestCollectorOneSetOfLogs checks that the collector keeps one command ring
// and one decision log at their full configured capacity, one tracer for both
// sides, and one census per channel that the telemetry reports per channel.
func TestCollectorOneSetOfLogs(t *testing.T) {
	c := NewCollector(Options{Latency: true, TraceCapacity: 8, AuditCapacity: 8, Quality: true, Census: true}, 4)
	if c.Trace == nil || c.Audit == nil || c.Quality == nil || c.Tracer == nil {
		t.Fatalf("collector missing enabled features: %+v", c)
	}
	for i := 0; i < 9; i++ {
		c.Trace.Add(CmdRD, i%4, 0, 1, uint64(i))
	}
	c.Audit.Record(Decision{Cycle: 5, Channel: 2, Reason: ReasonAMSDrop})
	c.Tracer.Observe(StageTotal, 100)
	c.Tracer.Observe(StageDRAM, 9)
	c.Census(3).Requests++

	tel := c.Telemetry()
	if tel.TraceCmds != 9 || tel.TraceDropped != 1 {
		t.Errorf("trace totals = %d/%d, want 9/1 from one ring of 8", tel.TraceCmds, tel.TraceDropped)
	}
	if tel.Audit == nil || tel.Audit.AMSDrops != 1 || tel.Audit.RingCapacity != 8 {
		t.Errorf("audit digest = %+v, want one drop in a ring of 8", tel.Audit)
	}
	if len(tel.Stages) != 2 {
		t.Errorf("stages = %+v, want total + dram.service", tel.Stages)
	}
	if tel.Census == nil || len(tel.Census.Channels) != 4 || tel.Census.Requests != 1 ||
		tel.Census.Channels[3].Requests != 1 {
		t.Errorf("census = %+v, want four channels and channel 3's request", tel.Census)
	}
	if c.Census(4) != nil {
		t.Error("census for a channel the machine does not have")
	}
	var nc *Collector
	if nc.Census(0) != nil || nc.Telemetry() != nil {
		t.Error("nil collector handed out a census")
	}
}
