package approx

import "lazydram/internal/cache"

// Predictor synthesizes the contents of a dropped request's line. The paper's
// AMS is predictor-agnostic (Section IV-D "we can support a large variety of
// previously proposed value prediction mechanisms"); VPUnit is the paper's
// nearest-L2-line design, and the implementations here are simpler baselines
// in the spirit of the cited work (zero prediction, last-value prediction).
type Predictor interface {
	// Ready reports whether the predictor has enough state to predict.
	Ready() bool
	// Predict returns 128 predicted bytes for the line containing addr.
	Predict(addr uint64) [cache.LineSize]byte
	// Observe feeds the predictor an exact line on its way into the L2, so
	// history-based predictors can learn. May be a no-op.
	Observe(addr uint64, data *[cache.LineSize]byte)
	// Counts returns the lines predicted so far and how many of them fell
	// back to zero bytes for want of history.
	Counts() (predictions, fallbacks uint64)
}

// Observe makes VPUnit a Predictor; the nearest-line design reads the L2
// directly, so it learns nothing extra from fills.
func (v *VPUnit) Observe(uint64, *[cache.LineSize]byte) {}

// Counts returns the predictions made and the zero-line fallbacks.
func (v *VPUnit) Counts() (predictions, fallbacks uint64) { return v.Predictions, v.Fallbacks }

var _ Predictor = (*VPUnit)(nil)

// ZeroPredictor always predicts zero bytes — the weakest baseline from the
// load-value-approximation literature.
type ZeroPredictor struct {
	Predictions uint64
}

// Ready is always true: zero needs no warm-up.
func (*ZeroPredictor) Ready() bool { return true }

// Predict returns an all-zero line.
func (z *ZeroPredictor) Predict(uint64) [cache.LineSize]byte {
	z.Predictions++
	return [cache.LineSize]byte{}
}

// Observe is a no-op.
func (*ZeroPredictor) Observe(uint64, *[cache.LineSize]byte) {}

// Counts returns the predictions made; zero prediction has no fallback.
func (z *ZeroPredictor) Counts() (predictions, fallbacks uint64) { return z.Predictions, 0 }

// lastValueBuckets is the number of address-hashed history slots of
// LastValuePredictor.
const lastValueBuckets = 64

// LastValuePredictor predicts a dropped line from the most recent exact line
// observed in the same address bucket — a line-granularity analogue of
// classic last-value prediction.
type LastValuePredictor struct {
	lines    [lastValueBuckets][cache.LineSize]byte
	valid    [lastValueBuckets]bool
	observed uint64
	// WarmFills is the number of observations required before Ready.
	WarmFills uint64

	Predictions uint64
	Fallbacks   uint64
}

func (p *LastValuePredictor) bucket(addr uint64) int {
	return int((addr / cache.LineSize) % lastValueBuckets)
}

// Ready reports whether enough lines have been observed.
func (p *LastValuePredictor) Ready() bool { return p.observed >= p.WarmFills }

// Observe records an exact line.
func (p *LastValuePredictor) Observe(addr uint64, data *[cache.LineSize]byte) {
	b := p.bucket(addr)
	p.lines[b] = *data
	p.valid[b] = true
	p.observed++
}

// Counts returns the predictions made and the zero-line fallbacks.
func (p *LastValuePredictor) Counts() (predictions, fallbacks uint64) {
	return p.Predictions, p.Fallbacks
}

// Predict returns the bucket's last observed line, or zeros before any
// observation.
func (p *LastValuePredictor) Predict(addr uint64) [cache.LineSize]byte {
	p.Predictions++
	b := p.bucket(addr)
	if !p.valid[b] {
		p.Fallbacks++
		return [cache.LineSize]byte{}
	}
	return p.lines[b]
}
