package obs

import "math/bits"

// Histogram is a fixed-bucket, HDR-style log-linear latency histogram.
// Values below 2^subBits are recorded exactly; above that, each power-of-two
// range is split into 2^(subBits-1) equal sub-buckets, bounding the relative
// quantization error of any recorded value by 2^-(subBits-1) (< 1.6%).
//
// Observe is allocation-free and O(1): the bucket array is a fixed-size
// inline array, so a Histogram (or a Tracer full of them) is a single flat
// allocation made once at collector construction.
type Histogram struct {
	buckets [numBuckets]uint64
	count   uint64
	sum     uint64
	max     uint64
}

const (
	// subBits sets the precision: 128 exact buckets, then 64 sub-buckets per
	// power of two.
	subBits = 7
	nSub    = 1 << subBits // 128

	// maxTracked clamps observations so the bucket array stays bounded;
	// 2^42 memory cycles is ~79 minutes of simulated GDDR5 time, far beyond
	// any single request's lifetime. Larger values land in the top bucket
	// (Max still records the true maximum).
	maxTrackedBits = 42
	maxTracked     = uint64(1)<<maxTrackedBits - 1

	numGroups  = maxTrackedBits - subBits // power-of-two ranges above the exact region
	numBuckets = nSub + numGroups*(nSub/2)
)

// bucketIdx maps a (pre-clamped) value to its bucket.
func bucketIdx(v uint64) int {
	if v < nSub {
		return int(v)
	}
	g := bits.Len64(v) - subBits // ≥ 1
	// v>>g lies in [nSub/2, nSub); together with the exact region the index
	// space is contiguous: group g occupies [g*nSub/2 + nSub/2, g*nSub/2 + nSub).
	return g*(nSub/2) + int(v>>uint(g))
}

// bucketBounds returns the [lo, hi) value range of bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i < nSub {
		return uint64(i), uint64(i) + 1
	}
	g := (i - nSub/2) / (nSub / 2)
	sub := uint64(i - g*(nSub/2))
	return sub << uint(g), (sub + 1) << uint(g)
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if v > maxTracked {
		v = maxTracked
	}
	h.buckets[bucketIdx(v)]++
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of recorded values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the arithmetic mean of recorded values (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Percentile returns the nearest-rank p-th percentile (p in [0, 100]) as the
// midpoint of the bucket holding that rank. Returns 0 when empty.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(p / 100 * float64(h.count))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i]
		if cum >= rank {
			lo, hi := bucketBounds(i)
			mid := lo + (hi-lo-1)/2
			if mid > h.max {
				mid = h.max // top-bucket clamp: never report past the true max
			}
			return mid
		}
	}
	return h.max
}

// HistBucket is one non-empty histogram bucket in serializable form: the
// [Lo, Hi) value range and its sample count.
type HistBucket struct {
	Lo    uint64 `json:"lo" gate:"key"`
	Hi    uint64 `json:"hi" gate:"key"`
	Count uint64 `json:"count"`
}

// Buckets returns the non-empty buckets in value order (nil when empty).
func (h *Histogram) Buckets() []HistBucket {
	var out []HistBucket
	for i := range h.buckets {
		if h.buckets[i] == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		out = append(out, HistBucket{Lo: lo, Hi: hi, Count: h.buckets[i]})
	}
	return out
}

// Merge adds o's samples into h.
func (h *Histogram) Merge(o *Histogram) {
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}
