package mc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lazydram/internal/dram"
	"lazydram/internal/obs"
	"lazydram/internal/stats"
)

// horizonTraffic mixes Zipf reads and writes (AMS candidates and DMS
// conflicts), streaming row hits and sparse strided misses whose long gaps
// let the queue drain, so horizons run long on both busy and idle channels.
func horizonTraffic() generator {
	return &mixedGen{Gens: []generator{
		&zipfGen{Banks: 16, Rows: 256, S: 1.3, Gap: 3, WriteFrac: 0.2},
		&streamGen{Banks: 16, Rows: 32, Gap: 2},
		&stridedGen{Banks: 16, Rows: 64, Gap: 40},
	}}
}

type horizonCompletion struct {
	id      uint64
	approx  bool
	readyAt uint64
}

type horizonRun struct {
	done   []horizonCompletion
	mem    stats.Mem
	audit  *obs.AuditLog
	census *obs.Census
}

// runHorizon drives the horizon traffic with the audit and census attached;
// scanRef makes the controller scan every cycle instead of skipping to its
// next-issue horizon.
func runHorizon(pol Policy, scheme Scheme, seed int64, scanRef bool) horizonRun {
	var out horizonRun
	cfg := driveConfig{MC: DefaultConfig(), DRAM: dram.DefaultConfig(), Seed: seed}
	cfg.MC.Policy = pol
	cfg.MC.Scheme = scheme
	cfg.MC.ProfileWindow = 256 // many Dyn-DMS delay changes per run
	cfg.setup = func(c *Controller) {
		c.scanRef = scanRef
		out.audit = obs.NewAuditLog(512)
		c.SetAudit(out.audit, 0)
		out.census = obs.NewCensus()
		c.SetCensus(out.census)
	}
	cfg.done = func(r *Request, approx bool, readyAt uint64) {
		out.done = append(out.done, horizonCompletion{r.ID, approx, readyAt})
	}
	out.mem = driveWith(cfg, horizonTraffic(), 1200).Mem
	return out
}

// TestIssueHorizonEquivalence pins the next-issue horizon to the full scan:
// a controller that skips issue until its horizon must complete the same
// requests at the same cycles, and leave the same memory statistics (per-bank
// DMSDelayCycles included), audit log and census as one that scans every
// cycle, under every scheme and policy.
func TestIssueHorizonEquivalence(t *testing.T) {
	schemes := []Scheme{Baseline, StaticDMS, DynDMS, StaticAMS, DynAMS, StaticBoth, DynBoth}
	for _, pol := range []Policy{FRFCFS, FCFS, FRFCFSClosedRow} {
		for _, scheme := range schemes {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", pol, scheme.Name(), seed)
				want := runHorizon(pol, scheme, seed, true)
				got := runHorizon(pol, scheme, seed, false)
				if !reflect.DeepEqual(want.done, got.done) {
					t.Fatalf("%s: completions differ (%d vs %d)", name, len(got.done), len(want.done))
				}
				if !reflect.DeepEqual(want.mem, got.mem) {
					t.Fatalf("%s: memory statistics differ:\n scan:    %+v\n horizon: %+v", name, want.mem, got.mem)
				}
				if !reflect.DeepEqual(want.audit, got.audit) {
					t.Fatalf("%s: audit log differs: %d vs %d decisions", name, got.audit.Total(), want.audit.Total())
				}
				if !reflect.DeepEqual(want.census, got.census) {
					t.Fatalf("%s: census differs:\n scan:    %v\n horizon: %v", name, stallTotals(want.census), stallTotals(got.census))
				}
			}
		}
	}
}

// TestIssueHorizonTakesLaterStamp scripts one candidate that bank timing
// blocks first and channel timing longer: a row hit behind tRCD and then the
// write-to-read turnaround, and an activate behind tRP and then tRRD. A scan
// that finds nothing must leave the later stamp as the issue horizon; the
// earlier one only buys a second scan that finds nothing either.
func TestIssueHorizonTakesLaterStamp(t *testing.T) {
	tm := dram.HynixGDDR5()
	for _, tc := range []struct {
		name  string
		cmd   obs.CmdKind
		bank  int
		row   int64
		setup func(ch *dram.Channel)
		scan  uint64
	}{
		{"hit", obs.CmdRD, 0, 5, func(ch *dram.Channel) {
			ch.Activate(1, 0, 0)
			ch.Activate(0, 5, tm.RRD)
			ch.Write(1, tm.RCD)
		}, tm.RCD + 1},
		{"activate", obs.CmdACT, 2, 7, func(ch *dram.Channel) {
			ch.Activate(2, 1, 0)
			ch.Precharge(2, tm.RAS)
			ch.Activate(3, 0, tm.RC-2)
		}, tm.RC - 1},
	} {
		st := &stats.Mem{}
		ch := dram.NewChannel(dram.DefaultConfig(), st)
		c := New(DefaultConfig(), ch, st, func(*Request, bool, uint64) {}, nil)
		tc.setup(ch)
		c.Push(0, false, false, dram.Coord{Bank: tc.bank, Row: tc.row})
		bank, channel := ch.ReadyAt(tc.bank, tc.cmd)
		if !(tc.scan < bank && bank < channel) {
			t.Fatalf("%s: scan at %d, bank stamp %d, channel stamp %d: not blocked by both", tc.name, tc.scan, bank, channel)
		}
		c.Tick(tc.scan)
		if c.issueAt != channel {
			t.Errorf("%s: issue horizon %d after the scan at %d, want the channel stamp %d (bank stamp %d)",
				tc.name, c.issueAt, tc.scan, channel, bank)
		}
	}
}

// checkQueues fails t unless every structure of c that can hold a request
// holds only pending ones, and every bank's open index matches a search for
// the open row.
func checkQueues(t *testing.T, c *Controller, now uint64) {
	t.Helper()
	pending := func(r *Request, where string, b int) {
		if r != nil && r.state != ReqPending {
			t.Fatalf("cycle %d: %s (bank %d) holds request #%d in state %d", now, where, b, r.ID, r.state)
		}
	}
	live := 0
	for b := range c.banks {
		bq := &c.banks[b]
		live += len(bq.fifo)
		for _, r := range bq.fifo {
			pending(r, "FIFO", b)
		}
		for _, rq := range bq.rows {
			if len(rq.reqs) == 0 && !rq.dropping {
				t.Fatalf("cycle %d: bank %d keeps an empty row queue for row %d", now, b, rq.row)
			}
			for _, r := range rq.reqs {
				pending(r, "row queue", b)
			}
		}
		if bq.cenVersion == bq.version {
			pending(bq.cenHead, "head cache", b)
		}
		pending(c.cenSpans[b].head, "census span", b)
		if want := bq.row(c.ch.OpenRow(b)); bq.open != want {
			t.Fatalf("cycle %d: bank %d open index %p, row search %p", now, b, bq.open, want)
		}
		if bq.open != nil && bq.open.dropping {
			t.Fatalf("cycle %d: bank %d drops its open row %d", now, b, bq.open.row)
		}
	}
	if live != c.live {
		t.Fatalf("cycle %d: FIFOs hold %d requests, live count %d", now, live, c.live)
	}
	for _, r := range c.ams.dropList {
		pending(r, "AMS drop list", c.ams.dropBank)
	}
	if c.liveVersion == c.version {
		pending(c.liveHead, "oldestLive cache", -1)
	}
}

// TestRequestRecycling runs randomized traffic with AMS row drops, the
// census and the audit on, releasing every completed request back to the
// controller after a random delay. After every Tick no queue, drop list,
// census span or head cache may hold a request that is not pending — a
// recycled request reachable from one would be scheduled twice — and later
// pushes must reuse the released requests.
func TestRequestRecycling(t *testing.T) {
	for _, pol := range []Policy{FRFCFS, FCFS, FRFCFSClosedRow} {
		for _, scheme := range []Scheme{StaticAMS, StaticBoth, DynBoth} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", pol, scheme.Name(), seed)
				rng := rand.New(rand.NewSource(seed))
				type completed struct {
					r       *Request
					release uint64
				}
				var out []completed
				var now uint64
				distinct := map[*Request]bool{}
				cfg := driveConfig{MC: DefaultConfig(), DRAM: dram.DefaultConfig(), Seed: seed}
				cfg.MC.Policy = pol
				cfg.MC.Scheme = scheme
				cfg.MC.ProfileWindow = 256
				cfg.setup = func(c *Controller) {
					c.SetAudit(obs.NewAuditLog(64), 0)
					c.SetCensus(obs.NewCensus())
				}
				cfg.done = func(r *Request, approx bool, readyAt uint64) {
					distinct[r] = true
					out = append(out, completed{r, now + uint64(rng.Intn(50))})
				}
				cfg.tick = func(c *Controller, at uint64) {
					checkQueues(t, c, at)
					now = at + 1
					kept := out[:0]
					for _, o := range out {
						if o.release > at {
							kept = append(kept, o)
							continue
						}
						c.Release(o.r)
						if o.r.State() != ReqFree {
							t.Fatalf("%s: released request in state %d", name, o.r.State())
						}
					}
					out = kept
				}
				res := driveWith(cfg, &zipfGen{Banks: 16, Rows: 64, S: 1.2, Gap: 2, WriteFrac: 0.1}, 2000)
				if res.Dropped == 0 {
					t.Fatalf("%s: no AMS drops", name)
				}
				if n := res.Served + res.Dropped; uint64(len(distinct)) > n/2 {
					t.Fatalf("%s: %d completions used %d distinct requests", name, n, len(distinct))
				}
			}
		}
	}
}
