package mc_test

import (
	"testing"

	"lazydram/internal/dram"
	"lazydram/internal/mc"
	"lazydram/internal/stats"
)

// harness drives one controller with scripted requests and records
// completions.
type harness struct {
	st     *stats.Mem
	ctrl   *mc.Controller
	am     dram.AddrMap
	done   []completion
	vpWarm bool
}

type completion struct {
	req    *mc.Request
	approx bool
	at     uint64
}

func newHarness(t *testing.T, scheme mc.Scheme, mutate ...func(*mc.Config)) *harness {
	t.Helper()
	h := &harness{st: &stats.Mem{}, am: dram.DefaultAddrMap(), vpWarm: true}
	ch := dram.NewChannel(dram.DefaultConfig(), h.st)
	cfg := mc.DefaultConfig()
	cfg.Scheme = scheme
	for _, m := range mutate {
		m(&cfg)
	}
	h.ctrl = mc.New(cfg, ch, h.st, func(r *mc.Request, approx bool, at uint64) {
		h.done = append(h.done, completion{req: r, approx: approx, at: at})
	}, func() bool { return h.vpWarm })
	return h
}

// push enqueues a read (or write) for (bank, row, col).
func (h *harness) push(bank int, row int64, col uint64, write, approximable bool) *mc.Request {
	c := dram.Coord{Channel: 0, Bank: bank, Row: row, Col: col}
	return h.ctrl.Push(h.am.Encode(c), write, approximable, c)
}

func (h *harness) run(from, to uint64) {
	for now := from; now < to; now++ {
		h.ctrl.Tick(now)
	}
}

func TestFRFCFSPrioritizesRowHitsOverOlderRequests(t *testing.T) {
	h := newHarness(t, mc.Baseline)
	// Row 1 request is oldest; row 2 request arrives later; then more row-1
	// work arrives after row 2. FR-FCFS must finish row 1 (hits) before
	// switching to row 2, even though the row-2 request is older than the
	// late row-1 requests.
	h.push(0, 1, 0, false, false)
	h.push(0, 2, 0, false, false)
	h.push(0, 1, 128, false, false)
	h.push(0, 1, 256, false, false)
	h.run(0, 500)
	if len(h.done) != 4 {
		t.Fatalf("completed %d requests, want 4", len(h.done))
	}
	var order []int64
	for _, c := range h.done {
		order = append(order, c.req.Coord.Row)
	}
	want := []int64{1, 1, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
	if h.st.Activations != 2 {
		t.Fatalf("activations = %d, want 2", h.st.Activations)
	}
}

func TestFRFCFSServesOldestWhenNoHits(t *testing.T) {
	h := newHarness(t, mc.Baseline)
	h.push(0, 5, 0, false, false)
	h.push(0, 3, 0, false, false)
	h.run(0, 300)
	if len(h.done) != 2 {
		t.Fatalf("completed %d, want 2", len(h.done))
	}
	if h.done[0].req.Coord.Row != 5 {
		t.Fatalf("first served row %d, want oldest (5)", h.done[0].req.Coord.Row)
	}
}

func TestOpenRowPolicyKeepsRowOpen(t *testing.T) {
	h := newHarness(t, mc.Baseline)
	h.push(0, 1, 0, false, false)
	h.run(0, 200)
	// A late request to the same row must be a row hit: still 1 activation.
	h.push(0, 1, 128, false, false)
	h.run(200, 400)
	if h.st.Activations != 1 {
		t.Fatalf("activations = %d, want 1 (open-row policy)", h.st.Activations)
	}
}

func TestBanksServiceInParallel(t *testing.T) {
	h := newHarness(t, mc.Baseline)
	for b := 0; b < 4; b++ {
		h.push(b, 1, 0, false, false)
	}
	h.run(0, 120)
	if len(h.done) != 4 {
		t.Fatalf("completed %d, want 4 across banks", len(h.done))
	}
	// With tRRD=6, four ACTs must have issued within ~18+tRCD+CL cycles,
	// far faster than serial tRC spacing.
	last := h.done[3].at
	if last > 60 {
		t.Fatalf("4-bank service took until cycle %d; banks not parallel", last)
	}
}

func TestWritesAreScheduled(t *testing.T) {
	h := newHarness(t, mc.Baseline)
	h.push(0, 1, 0, true, false)
	h.push(0, 1, 128, false, false)
	h.run(0, 300)
	if h.st.Writes != 1 || h.st.Reads != 1 {
		t.Fatalf("reads=%d writes=%d, want 1/1", h.st.Reads, h.st.Writes)
	}
}

func TestQueueBackpressure(t *testing.T) {
	h := newHarness(t, mc.Baseline, func(c *mc.Config) { c.QueueSize = 4 })
	for i := 0; i < 4; i++ {
		h.push(0, int64(i), 0, false, false)
	}
	if !h.ctrl.Full() {
		t.Fatal("queue must be full after QueueSize pushes")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("push to full queue must panic")
		}
	}()
	h.push(0, 9, 0, false, false)
}

func TestDMSGatesRowMissByAge(t *testing.T) {
	scheme := mc.Scheme{DMS: mc.Static, StaticDelay: 100}
	h := newHarness(t, scheme)
	h.push(0, 1, 0, false, false)
	h.run(0, 99)
	if h.st.Activations != 0 {
		t.Fatal("row miss activated before the DMS delay elapsed")
	}
	h.run(99, 300)
	if h.st.Activations != 1 || len(h.done) != 1 {
		t.Fatalf("request not served after delay: acts=%d done=%d", h.st.Activations, len(h.done))
	}
}

func TestDMSDoesNotDelayRowHits(t *testing.T) {
	scheme := mc.Scheme{DMS: mc.Static, StaticDelay: 100}
	h := newHarness(t, scheme)
	h.push(0, 1, 0, false, false)
	h.run(0, 250) // row 1 now open
	served := len(h.done)
	// A fresh same-row request must be served promptly despite its age 0.
	h.push(0, 1, 128, false, false)
	h.run(250, 300)
	if len(h.done) != served+1 {
		t.Fatal("row hit was delayed by DMS")
	}
}

func TestDMSAccumulatesRowMates(t *testing.T) {
	// Two same-row requests arriving 50 cycles apart: without DMS the first
	// is issued alone (row may close in between under pressure); with
	// DMS(200) both are visible when the row opens. Here we only check that
	// delaying does not increase activations and both requests ride one
	// activation.
	scheme := mc.Scheme{DMS: mc.Static, StaticDelay: 200}
	h := newHarness(t, scheme)
	h.push(0, 1, 0, false, false)
	h.run(0, 50)
	h.push(0, 1, 128, false, false)
	h.run(50, 600)
	if h.st.Activations != 1 {
		t.Fatalf("activations = %d, want 1", h.st.Activations)
	}
	h.ctrl.Drain() // fold the still-open activation into the histogram
	if h.st.RBL[2] != 1 {
		t.Fatalf("RBL[2] = %d, want 1", h.st.RBL[2])
	}
}

func TestAMSDropsLowRBLApproximableRead(t *testing.T) {
	scheme := mc.Scheme{AMS: mc.Static, StaticThRBL: 1, CoverageTarget: 1}
	h := newHarness(t, scheme)
	r := h.push(0, 1, 0, false, true)
	h.run(0, 50)
	if r.State() != mc.ReqDropped {
		t.Fatalf("state = %v, want dropped", r.State())
	}
	if h.st.Activations != 0 {
		t.Fatal("dropped request must not activate a row")
	}
	if len(h.done) != 1 || !h.done[0].approx {
		t.Fatal("dropped request must complete as approximate")
	}
	if h.st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", h.st.Dropped)
	}
}

func TestAMSRespectsThRBL(t *testing.T) {
	scheme := mc.Scheme{AMS: mc.Static, StaticThRBL: 1, CoverageTarget: 1}
	h := newHarness(t, scheme)
	// Two pending requests to the row: visible RBL 2 > Th 1 -> no drop.
	h.push(0, 1, 0, false, true)
	h.push(0, 1, 128, false, true)
	h.run(0, 400)
	if h.st.Dropped != 0 {
		t.Fatalf("dropped %d requests despite RBL above threshold", h.st.Dropped)
	}
	if h.st.Activations != 1 {
		t.Fatalf("activations = %d, want 1", h.st.Activations)
	}
}

func TestAMSDropsWholeRowWithinThreshold(t *testing.T) {
	scheme := mc.Scheme{AMS: mc.Static, StaticThRBL: 4, CoverageTarget: 1}
	h := newHarness(t, scheme)
	for i := 0; i < 3; i++ {
		h.push(0, 1, uint64(i*128), false, true)
	}
	h.run(0, 50)
	if h.st.Dropped != 3 {
		t.Fatalf("dropped = %d, want the whole row (3)", h.st.Dropped)
	}
	if h.st.Activations != 0 {
		t.Fatal("whole-row drop must save the activation")
	}
}

func TestAMSDropsOneRequestPerCycle(t *testing.T) {
	scheme := mc.Scheme{AMS: mc.Static, StaticThRBL: 4, CoverageTarget: 1}
	h := newHarness(t, scheme)
	for i := 0; i < 3; i++ {
		h.push(0, 1, uint64(i*128), false, true)
	}
	h.run(0, 3)
	ats := map[uint64]int{}
	for _, c := range h.done {
		ats[c.at]++
	}
	for at, n := range ats {
		if n > 1 {
			t.Fatalf("%d drops completed for cycle %d; want sequential drops", n, at)
		}
	}
}

func TestAMSRefusesRowWithPendingWrite(t *testing.T) {
	scheme := mc.Scheme{AMS: mc.Static, StaticThRBL: 8, CoverageTarget: 1}
	h := newHarness(t, scheme)
	h.push(0, 1, 0, false, true)
	h.push(0, 1, 128, true, false) // write to the same row
	h.run(0, 400)
	if h.st.Dropped != 0 {
		t.Fatal("AMS must not drop a row with pending writes")
	}
}

func TestAMSRefusesNonApproximable(t *testing.T) {
	scheme := mc.Scheme{AMS: mc.Static, StaticThRBL: 8, CoverageTarget: 1}
	h := newHarness(t, scheme)
	h.push(0, 1, 0, false, false)
	h.run(0, 300)
	if h.st.Dropped != 0 {
		t.Fatal("non-approximable request was dropped")
	}
	if len(h.done) != 1 {
		t.Fatal("request not served")
	}
}

func TestAMSRefusesRowWithNonApproximableMate(t *testing.T) {
	scheme := mc.Scheme{AMS: mc.Static, StaticThRBL: 8, CoverageTarget: 1}
	h := newHarness(t, scheme)
	h.push(0, 1, 0, false, true)
	h.push(0, 1, 128, false, false)
	h.run(0, 400)
	if h.st.Dropped != 0 {
		t.Fatal("row with a non-approximable request must not be dropped")
	}
}

func TestAMSHonorsCoverageCap(t *testing.T) {
	scheme := mc.Scheme{AMS: mc.Static, StaticThRBL: 8, CoverageTarget: 0.25}
	h := newHarness(t, scheme)
	// 8 single-request rows: at most 2 drops before 2/8 = 25% is reached.
	for i := 0; i < 8; i++ {
		h.push(0, int64(i+1), 0, false, true)
	}
	h.run(0, 2000)
	if h.st.Dropped > 2 {
		t.Fatalf("dropped %d of 8 (%.0f%%), cap 25%%", h.st.Dropped,
			100*float64(h.st.Dropped)/8)
	}
}

func TestAMSWaitsForVPWarmup(t *testing.T) {
	scheme := mc.Scheme{AMS: mc.Static, StaticThRBL: 8, CoverageTarget: 1}
	h := newHarness(t, scheme)
	h.vpWarm = false
	h.push(0, 1, 0, false, true)
	h.run(0, 300)
	if h.st.Dropped != 0 {
		t.Fatal("AMS dropped before the VP unit was warm")
	}
	if len(h.done) != 1 {
		t.Fatal("request must fall back to normal service")
	}
}

func TestAMSSkipsOpenRow(t *testing.T) {
	scheme := mc.Scheme{AMS: mc.Static, StaticThRBL: 8, CoverageTarget: 1}
	h := newHarness(t, scheme)
	h.push(0, 1, 0, false, false) // non-approximable opens row 1
	h.run(0, 200)
	// Row 1 is open; an approximable request to it is a cheap hit, not a
	// drop candidate.
	h.push(0, 1, 128, false, true)
	h.run(200, 400)
	if h.st.Dropped != 0 {
		t.Fatal("request to an open row must be served, not dropped")
	}
}

func TestAMSWithDMSWaitsForDelay(t *testing.T) {
	scheme := mc.Scheme{
		DMS: mc.Static, StaticDelay: 100,
		AMS: mc.Static, StaticThRBL: 8, CoverageTarget: 1,
	}
	h := newHarness(t, scheme)
	r := h.push(0, 1, 0, false, true)
	h.run(0, 99)
	if r.State() == mc.ReqDropped {
		t.Fatal("AMS dropped before the DMS delay elapsed")
	}
	h.run(99, 200)
	if r.State() != mc.ReqDropped {
		t.Fatal("AMS did not drop after the delay elapsed")
	}
}

func TestSchemeNames(t *testing.T) {
	tests := []struct {
		give mc.Scheme
		want string
	}{
		{mc.Baseline, "Baseline"},
		{mc.StaticDMS, "Static-DMS"},
		{mc.DynDMS, "Dyn-DMS"},
		{mc.StaticAMS, "Static-AMS"},
		{mc.DynAMS, "Dyn-AMS"},
		{mc.StaticBoth, "Static-DMS+Static-AMS"},
		{mc.DynBoth, "Dyn-DMS+Dyn-AMS"},
		{mc.Scheme{DMS: mc.Static, StaticDelay: 512}, "DMS(512)"},
		{mc.Scheme{AMS: mc.Static, StaticThRBL: 2, CoverageTarget: 0.1}, "AMS(2)"},
	}
	for _, tt := range tests {
		if got := tt.give.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}
