package mc

import (
	"slices"

	"lazydram/internal/obs"
	"lazydram/internal/stats"
)

// amsUnit implements Static-AMS and Dyn-AMS. The unit inspects the oldest
// pending request each memory cycle; when the request is an approximable
// global read whose visible row RBL is at most thRBL, the row has no pending
// writes or non-approximable requests, the row is not already open, and the
// running prediction coverage is below the target, the request's entire
// pending row is dropped (one request per cycle) and answered by the value
// predictor.
//
// Dyn-AMS modulates thRBL once per ProfileWindow: while the window's
// coverage meets the target it lowers thRBL toward MinThRBL so the limited
// coverage is spent on the lowest-RBL rows; when coverage falls short it
// raises thRBL back toward MaxThRBL (Section IV-C).
type amsUnit struct {
	mode           Mode
	window         uint64
	thRBL          int
	coverageTarget float64
	st             *stats.Mem

	winStart          uint64
	droppedAtWinStart uint64
	readsAtWinStart   uint64

	dropList []*Request
	dropBank int
	dropRow  int64

	aud     *obs.AuditLog // nil unless the decision audit is enabled
	channel int
}

func newAMSUnit(s Scheme, window uint64, st *stats.Mem) *amsUnit {
	th := s.StaticThRBL
	if th <= 0 {
		th = MaxThRBL
	}
	cov := s.CoverageTarget
	if cov <= 0 {
		cov = 0.10
	}
	return &amsUnit{mode: s.AMS, window: window, thRBL: th, coverageTarget: cov, st: st}
}

// tick runs the Dyn-AMS window profiling.
func (u *amsUnit) tick(now uint64) {
	if u.mode != Dyn {
		return
	}
	if now-u.winStart < u.window {
		return
	}
	u.windowEnd(now)
}

// windowEnd closes the profile window ending at now. The threshold is only
// adapted when the window saw reads, but the window start and baselines
// always advance so an idle (zero-read) window is retired once instead of
// being re-evaluated on every subsequent cycle.
func (u *amsUnit) windowEnd(now uint64) {
	reads := u.st.ReadReqs - u.readsAtWinStart
	dropped := u.st.Dropped - u.droppedAtWinStart
	var cov float64
	if reads > 0 {
		cov = float64(dropped) / float64(reads)
		// The running-coverage cap throttles drops to just below the target,
		// so windows where demand saturates land slightly under it; the
		// 0.95 factor keeps the cap interaction from masking saturation.
		if cov >= 0.95*u.coverageTarget {
			if u.thRBL > MinThRBL {
				u.thRBL--
			}
		} else if u.thRBL < MaxThRBL {
			u.thRBL++
		}
	}
	if u.aud != nil {
		u.aud.RecordAdapt(obs.AdaptPoint{
			Cycle:         now,
			Channel:       u.channel,
			Unit:          "ams",
			ThRBL:         u.thRBL,
			Coverage:      cov,
			WindowReads:   reads,
			WindowDropped: dropped,
		})
	}
	u.winStart = now
	u.readsAtWinStart = u.st.ReadReqs
	u.droppedAtWinStart = u.st.Dropped
}

// amsStep performs at most one drop per memory cycle (Section IV-C's
// "dropped sequentially in the following memory cycles").
func (c *Controller) amsStep(now uint64) {
	a := c.ams
	// Continue draining an in-progress row drop.
	if len(a.dropList) > 0 {
		r := a.dropList[0]
		a.dropList = slices.Delete(a.dropList, 0, 1)
		c.dropReq(r, now)
		if len(a.dropList) == 0 {
			a.finishRowDrop(c)
		}
		return
	}
	// Skip reasons below are audited only for genuine drop candidates
	// (approximable reads); refusing a write or a non-approximable read is
	// not an AMS decision.
	if c.vpReady != nil && !c.vpReady() {
		// L2 not warmed up; the VP unit cannot predict yet.
		if c.aud != nil {
			if req := c.oldestLive(); req != nil && !req.Write && req.Approximable {
				c.auditSampled(now, req, obs.ReasonAMSL2Cold)
			}
		}
		return
	}
	req := c.oldestLive()
	if req == nil || req.Write || !req.Approximable {
		return
	}
	if now-req.Arrival < uint64(c.Delay()) {
		// DMS delay criterion not yet satisfied.
		if c.aud != nil {
			c.auditSampled(now, req, obs.ReasonAMSDelayPending)
		}
		return
	}
	if c.st.ReadReqs == 0 ||
		float64(c.st.Dropped)/float64(c.st.ReadReqs) >= a.coverageTarget {
		// prediction-coverage budget exhausted
		if c.aud != nil {
			c.auditSampled(now, req, obs.ReasonAMSCoverageExhausted)
		}
		return
	}
	rq := req.rq
	if rq.pendingWrites > 0 || rq.pendingNonApprox > 0 {
		if c.aud != nil {
			reason := obs.ReasonAMSPendingNonApprox
			if rq.pendingWrites > 0 {
				reason = obs.ReasonAMSPendingWrites
			}
			c.auditSampled(now, req, reason)
		}
		return
	}
	if c.ch.OpenRow(req.Coord.Bank) == req.Coord.Row {
		// row already open: serving these requests costs no activation
		if c.aud != nil {
			c.auditSampled(now, req, obs.ReasonAMSRowOpen)
		}
		return
	}
	if len(rq.reqs) > a.thRBL {
		// visible RBL too high; keep the coverage for lower-RBL rows
		if c.aud != nil {
			c.auditSampled(now, req, obs.ReasonAMSHighRBL)
		}
		return
	}
	// Drop the whole visible row, starting with the oldest request now. The
	// bank head is its row's oldest request, so the rest of the row queue is
	// the drain list, in order.
	rq.dropping = true
	c.touch(req.Coord.Bank)
	a.dropBank = req.Coord.Bank
	a.dropRow = req.Coord.Row
	a.dropList = append(a.dropList, rq.reqs[1:]...)
	c.dropReq(req, now)
	if len(a.dropList) == 0 {
		a.finishRowDrop(c)
	}
}

func (a *amsUnit) finishRowDrop(c *Controller) {
	bq := &c.banks[a.dropBank]
	if rq := bq.row(a.dropRow); rq != nil {
		rq.dropping = false
		c.touch(a.dropBank)
		if len(rq.reqs) == 0 {
			bq.release(rq)
		}
	}
}

func (c *Controller) dropReq(r *Request, now uint64) {
	// Audited before the counters move so the Decision carries the coverage
	// that justified the drop; the drop count reconciles with st.Dropped.
	if c.aud != nil {
		c.audit(now, r, obs.ReasonAMSDrop)
	}
	c.tr.Observe(obs.StageVPDrop, now-r.Arrival)
	c.activity++
	if c.cen != nil {
		c.censusRetire(r, now, now+c.cfg.VPLatencyCycles, true)
	}
	c.retire(r, ReqDropped)
	c.st.Dropped++
	c.st.Bank(r.Coord.Bank).AMSDrops++
	c.onComplete(r, true, now+c.cfg.VPLatencyCycles)
}

// oldestLive returns the oldest pending request across all banks, skipping
// rows currently being drained by a row drop. The answer depends only on
// the bank heads, so it is memoized on the controller's touch count.
func (c *Controller) oldestLive() *Request {
	if c.liveVersion == c.version {
		return c.liveHead
	}
	var best *Request
	for b := range c.banks {
		r := c.banks[b].head()
		if r != nil && (best == nil || r.Arrival < best.Arrival) {
			best = r
		}
	}
	c.liveHead, c.liveVersion = best, c.version
	return best
}
