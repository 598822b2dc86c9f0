package main

import (
	"math"
	"math/bits"
	"sort"
)

// tailLadder is the set of percentiles a timing may be reported at,
// lowest first.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile returns the highest percentile of tailLadder that has
// at least ten of n samples beyond it, so a reported tail is never set
// by a handful of outliers. It returns 0 when not even the median
// qualifies (n < 20).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-rankOf(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// rankOf is the 1-based nearest rank of percentile p among n samples.
// The 1e-9 keeps float error (100-99.9 is not exactly 0.1) from
// rounding a whole rank up.
func rankOf(p float64, n int) int {
	return min(max(int(math.Ceil(p/100*float64(n)-1e-9)), 1), n)
}

// percentile returns the p-th percentile (0..100) of sorted by nearest
// rank; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// hist is a fixed-size log-linear histogram of durations in
// nanoseconds: exact below histSub ns, then histSub buckets per power
// of two, so a recorded value is kept to within 1/histSub of itself.
// Its size does not depend on how many values it holds.
type hist struct {
	n      int64
	counts [histBuckets]uint32
}

const (
	histSub     = 64
	histShift   = 6  // log2(histSub)
	histOctaves = 30 // up to 2^36 ns (about 69 s); larger values clamp
	histBuckets = (histOctaves + 1) * histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		return int(max(ns, 0))
	}
	shift := bits.Len64(uint64(ns)) - histShift - 1
	return min((shift+1)*histSub+int(ns>>shift)-histSub, histBuckets-1)
}

// histMid is the middle of bucket i in nanoseconds.
func histMid(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	shift := i/histSub - 1
	lo := int64(histSub+i%histSub) << shift
	return float64(lo) + float64(int64(1)<<shift)/2
}

// add records one duration given in µs.
func (h *hist) add(us float64) {
	h.counts[histIndex(int64(us*1e3))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// percentile returns the p-th percentile (0..100) in µs by nearest rank,
// as the middle of the bucket holding that rank; 0 when empty.
func (h *hist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(rankOf(p, int(h.n)))
	var seen int64
	for i, c := range h.counts {
		if seen += int64(c); seen >= rank {
			return histMid(i) / 1e3
		}
	}
	return histMid(histBuckets-1) / 1e3
}

// logCrossing fits ln(y) = a + b·x by least squares and returns the x
// at which the fitted y reaches 1. ok is false with fewer than two
// points, a non-positive y, or a fit that does not rise with x.
func logCrossing(xs, ys []float64) (x float64, ok bool) {
	n := float64(len(xs))
	if len(xs) < 2 || len(xs) != len(ys) {
		return 0, false
	}
	var mx, my float64
	for i := range xs {
		if ys[i] <= 0 {
			return 0, false
		}
		mx += xs[i] / n
		my += math.Log(ys[i]) / n
	}
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (math.Log(ys[i]) - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	if sxx == 0 || sxy <= 0 {
		return 0, false
	}
	b := sxy / sxx
	return mx - my/b, true
}
