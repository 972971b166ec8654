package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs and how many
// samples lie strictly beyond that rank.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx], len(s) - 1 - idx
}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailPercentiles are the candidate tail ranks, highest first.
var tailPercentiles = []float64{99.9, 99, 90}

// tail picks the highest candidate percentile of xs that still has at least
// minBeyond samples beyond it. ok is false when even p90 has too few, so no
// tail is reported at all.
func tail(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailPercentiles {
		if v, beyond := percentile(xs, p); beyond >= minBeyond {
			return p, v, true
		}
	}
	return 0, 0, false
}

// seconds, millis and micros convert durations to float64 values.
func seconds(ds []time.Duration) []float64 { return scaled(ds, float64(time.Second)) }
func millis(ds []time.Duration) []float64  { return scaled(ds, float64(time.Millisecond)) }
func micros(ds []time.Duration) []float64  { return scaled(ds, float64(time.Microsecond)) }

func scaled(ds []time.Duration, unit float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / unit
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
