package obs

import (
	"encoding/binary"
	"math"
	"sort"
)

// This file is the approximation-quality half of the observability layer:
// the first measured "error" side of the paper's latency-and-error-tolerance
// claim. Every AMS-dropped line is answered by the value predictor instead of
// DRAM; because the functional memory image is never polluted by predictions,
// it stays the ground truth, so each drop can be scored word-by-word against
// the bytes the program would have read. The log accumulates absolute and
// relative error histograms (log-decade buckets) plus a bounded
// worst-offenders list.
//
// Error conventions mirror approx.MeanRelativeError so the per-line scores
// aggregate consistently with the end-of-run application error: relative
// error uses max(|truth|, relErrEps) as denominator, is clamped to
// relErrMax, non-finite ground-truth words are skipped, and a non-finite
// prediction of a finite word counts as maximal error.

const (
	relErrEps = 1e-6
	relErrMax = 10

	// Error histogram decades: [1e-9, 1e4). Values below the range land in
	// an "under" bucket, values at or above the top clamp into the last.
	errHistMinExp  = -9
	errHistMaxExp  = 4
	errHistDecades = errHistMaxExp - errHistMinExp

	worstOffenders = 16
)

// ErrHist is a log-decade histogram for non-negative error magnitudes.
type ErrHist struct {
	zero    uint64
	under   uint64
	buckets [errHistDecades]uint64
	count   uint64
	sum     float64
	max     float64
}

// Observe adds one error magnitude (clamped to the histogram range).
func (h *ErrHist) Observe(v float64) {
	h.count++
	if v > h.max {
		h.max = v
	}
	h.sum += v
	switch {
	case v <= 0:
		h.zero++
	case v < math.Pow(10, errHistMinExp):
		h.under++
	default:
		d := int(math.Floor(math.Log10(v))) - errHistMinExp
		if d < 0 {
			d = 0
		}
		if d >= errHistDecades {
			d = errHistDecades - 1
		}
		h.buckets[d]++
	}
}

// Count returns the number of observations.
func (h *ErrHist) Count() uint64 { return h.count }

// Mean returns the arithmetic mean of the observed errors (0 when empty).
func (h *ErrHist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest observed error.
func (h *ErrHist) Max() float64 { return h.max }

// Quantile returns a representative value at quantile q in [0,1]: 0 for the
// zero bucket and the geometric midpoint of the containing decade otherwise.
func (h *ErrHist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	if seen += h.zero; seen >= rank {
		return 0
	}
	if seen += h.under; seen >= rank {
		return math.Pow(10, errHistMinExp) / 2
	}
	for d := 0; d < errHistDecades; d++ {
		if seen += h.buckets[d]; seen >= rank {
			lo := math.Pow(10, float64(errHistMinExp+d))
			// The decade midpoint can overshoot when the decade's content
			// clusters at its bottom (e.g. clamped maximal errors); the
			// observed max is a tighter bound.
			return math.Min(lo*math.Sqrt(10), h.max)
		}
	}
	return h.max
}

// ErrBucket is one serialized histogram bucket: errors in [Lo, Hi).
type ErrBucket struct {
	Lo    float64 `json:"lo" gate:"key"`
	Hi    float64 `json:"hi" gate:"key"`
	Count uint64  `json:"count"`
}

// Buckets returns the non-empty buckets in ascending error order. The zero
// bucket is emitted as [0,0]; the under-range bucket as [0, 1e-9).
func (h *ErrHist) Buckets() []ErrBucket {
	var out []ErrBucket
	if h.zero > 0 {
		out = append(out, ErrBucket{Lo: 0, Hi: 0, Count: h.zero})
	}
	if h.under > 0 {
		out = append(out, ErrBucket{Lo: 0, Hi: math.Pow(10, errHistMinExp), Count: h.under})
	}
	for d := 0; d < errHistDecades; d++ {
		if h.buckets[d] == 0 {
			continue
		}
		lo := math.Pow(10, float64(errHistMinExp+d))
		out = append(out, ErrBucket{Lo: lo, Hi: lo * 10, Count: h.buckets[d]})
	}
	return out
}

// WorstOffender is one AMS-dropped line scored among the worst of the run.
type WorstOffender struct {
	Addr    uint64  `json:"addr" gate:"key"`
	Cycle   uint64  `json:"cycle" gate:"key"`
	Words   int     `json:"words"`
	MeanAbs float64 `json:"mean_abs"`
	MeanRel float64 `json:"mean_rel"`
	MaxRel  float64 `json:"max_rel"`
}

// QualityLog scores every AMS-dropped line against ground truth. A nil
// *QualityLog discards everything.
type QualityLog struct {
	lines        uint64
	words        uint64
	skippedWords uint64

	abs ErrHist
	rel ErrHist

	worstCap int
	worst    []WorstOffender // sorted by MeanRel descending
}

// NewQualityLog creates a log keeping up to worstCap worst offenders.
func NewQualityLog(worstCap int) *QualityLog {
	return &QualityLog{worstCap: worstCap}
}

// RecordLine scores one dropped line: pred holds the predictor's bytes,
// truth the ground-truth bytes from the functional image. Both are
// interpreted as little-endian float32 words. Nil-safe.
func (q *QualityLog) RecordLine(cycle, addr uint64, pred, truth []byte) {
	if q == nil {
		return
	}
	q.lines++
	n := len(truth) / 4
	if m := len(pred) / 4; m < n {
		n = m
	}
	var sumAbs, sumRel, maxRel float64
	var cnt int
	for i := 0; i < n; i++ {
		tf := float64(math.Float32frombits(binary.LittleEndian.Uint32(truth[4*i:])))
		pf := float64(math.Float32frombits(binary.LittleEndian.Uint32(pred[4*i:])))
		if math.IsNaN(tf) || math.IsInf(tf, 0) {
			q.skippedWords++
			continue
		}
		var abs, rel float64
		if math.IsNaN(pf) || math.IsInf(pf, 0) {
			// Non-finite prediction of a finite word: maximal error.
			rel = relErrMax
			abs = relErrMax * math.Max(math.Abs(tf), relErrEps)
		} else {
			abs = math.Abs(pf - tf)
			rel = abs / math.Max(math.Abs(tf), relErrEps)
			if rel > relErrMax {
				rel = relErrMax
			}
		}
		q.words++
		q.abs.Observe(abs)
		q.rel.Observe(rel)
		sumAbs += abs
		sumRel += rel
		if rel > maxRel {
			maxRel = rel
		}
		cnt++
	}
	if cnt == 0 {
		return
	}
	q.noteWorst(WorstOffender{
		Addr:    addr,
		Cycle:   cycle,
		Words:   cnt,
		MeanAbs: sumAbs / float64(cnt),
		MeanRel: sumRel / float64(cnt),
		MaxRel:  maxRel,
	})
}

func (q *QualityLog) noteWorst(w WorstOffender) {
	if len(q.worst) == q.worstCap && w.MeanRel <= q.worst[len(q.worst)-1].MeanRel {
		return
	}
	i := sort.Search(len(q.worst), func(i int) bool { return q.worst[i].MeanRel < w.MeanRel })
	q.worst = append(q.worst, WorstOffender{})
	copy(q.worst[i+1:], q.worst[i:])
	q.worst[i] = w
	if len(q.worst) > q.worstCap {
		q.worst = q.worst[:q.worstCap]
	}
}

// Lines returns the number of dropped lines scored.
func (q *QualityLog) Lines() uint64 {
	if q == nil {
		return 0
	}
	return q.lines
}

// Words returns the number of finite ground-truth words scored.
func (q *QualityLog) Words() uint64 {
	if q == nil {
		return 0
	}
	return q.words
}

// MeanRel returns the running mean relative error across scored words.
func (q *QualityLog) MeanRel() float64 {
	if q == nil {
		return 0
	}
	return q.rel.Mean()
}

// MaxRel returns the largest per-word relative error seen.
func (q *QualityLog) MaxRel() float64 {
	if q == nil {
		return 0
	}
	return q.rel.Max()
}

// QualitySummary is the serializable digest of a quality log.
type QualitySummary struct {
	Lines        uint64 `json:"lines"`
	Words        uint64 `json:"words"`
	SkippedWords uint64 `json:"skipped_words,omitempty"`

	MeanAbsError float64 `json:"mean_abs_error"`
	MeanRelError float64 `json:"mean_rel_error"`
	RelP50       float64 `json:"rel_p50"`
	RelP90       float64 `json:"rel_p90"`
	RelP99       float64 `json:"rel_p99"`
	MaxRelError  float64 `json:"max_rel_error"`

	AbsHist []ErrBucket     `json:"abs_hist,omitempty"`
	RelHist []ErrBucket     `json:"rel_hist,omitempty"`
	Worst   []WorstOffender `json:"worst,omitempty"`
}

// Summary builds the serializable digest (nil for a nil log).
func (q *QualityLog) Summary() *QualitySummary {
	if q == nil {
		return nil
	}
	return &QualitySummary{
		Lines:        q.lines,
		Words:        q.words,
		SkippedWords: q.skippedWords,
		MeanAbsError: q.abs.Mean(),
		MeanRelError: q.rel.Mean(),
		RelP50:       q.rel.Quantile(0.50),
		RelP90:       q.rel.Quantile(0.90),
		RelP99:       q.rel.Quantile(0.99),
		MaxRelError:  q.rel.Max(),
		AbsHist:      q.abs.Buckets(),
		RelHist:      q.rel.Buckets(),
		Worst:        append([]WorstOffender(nil), q.worst...),
	}
}
