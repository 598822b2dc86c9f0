package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && c.n-rankOf(p, c.n) < 10 {
			t.Errorf("tailPercentile(%d) = %g leaves fewer than ten samples beyond", c.n, p)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %g, want 0", got)
	}
}

func TestMedianAndTail(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	// Too few samples for any percentile: the tail is the upper quartile.
	if got := tailOf([]float64{5, 9, 7}); got != 9 {
		t.Errorf("tailOf(3 samples) = %g, want 9", got)
	}
	if got := tailOf([]float64{8, 1, 7, 2, 6, 3, 5, 4}); got != 6 {
		t.Errorf("tailOf(8 samples) = %g, want the upper quartile 6", got)
	}
}

func TestHistPercentileWithinBucketWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = 20 + rng.ExpFloat64()*100 // µs
		h.add(xs[i])
	}
	s := sortedCopy(xs)
	for _, p := range []float64{50, 90, 99, 99.9} {
		want, got := percentile(s, p), h.percentile(p)
		if math.Abs(got-want) > want/histSub {
			t.Errorf("hist p%g = %g µs, exact %g µs: off by more than 1/%d", p, got, want, histSub)
		}
	}
	var a, b hist
	for i, x := range xs {
		if i%2 == 0 {
			a.add(x)
		} else {
			b.add(x)
		}
	}
	a.merge(&b)
	if a != h {
		t.Error("merging two halves differs from one histogram of all values")
	}
}

func TestHistIndexMonotoneAndBounded(t *testing.T) {
	prev := -1
	for ns := int64(0); ns < 1<<40; ns = ns*17/16 + 1 {
		i := histIndex(ns)
		if i < prev || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d after %d", ns, i, prev)
		}
		if ns < 1<<36 && math.Abs(histMid(i)-float64(ns)) > float64(ns)/histSub+1 {
			t.Fatalf("histMid(histIndex(%d)) = %g", ns, histMid(i))
		}
		prev = i
	}
}

func TestLogCrossing(t *testing.T) {
	// y = e^((x-120)/40) reaches 1 at x = 120.
	var xs, ys []float64
	for _, x := range []float64{80, 100, 110, 140, 160, 200} {
		xs = append(xs, x)
		ys = append(ys, math.Exp((x-120)/40))
	}
	if x, ok := logCrossing(xs, ys); !ok || math.Abs(x-120) > 1e-9 {
		t.Errorf("logCrossing = %g, %v; want 120, true", x, ok)
	}
	for _, c := range []struct{ xs, ys []float64 }{
		{[]float64{80}, []float64{0.5}},                 // one point
		{[]float64{80, 100}, []float64{0.5, 0}},         // zero score
		{[]float64{80, 100, 120}, []float64{2, 1, 0.5}}, // falling
		{[]float64{80, 100, 120}, []float64{1, 1, 1}},   // flat
	} {
		if x, ok := logCrossing(c.xs, c.ys); ok {
			t.Errorf("logCrossing(%v, %v) = %g, true; want not ok", c.xs, c.ys, x)
		}
	}
}
