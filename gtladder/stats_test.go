package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		q    float64
		want float64
		ok   bool
	}{
		{0.5, 50, true},
		{0.9, 90, true}, // exactly 10 samples above rank 90
		{0.91, 91, false},
		{0.99, 99, false},
	} {
		got, ok := percentile(vals, tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..100, %v) = %v, %v; want %v, %v", tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as reportable")
	}
	if got, ok := percentile([]float64{7}, 0.99); got != 7 || ok {
		t.Errorf("percentile([7], 0.99) = %v, %v; want 7, false", got, ok)
	}
}

func TestPercentileSampleThresholds(t *testing.T) {
	// The reportability rule is what the benchmark's metric table states:
	// p50 from 20 samples, p90 from 100, p99 from 1000.
	for _, tc := range []struct {
		q       float64
		minimum int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		for _, n := range []int{tc.minimum - 1, tc.minimum} {
			vals := make([]float64, n)
			_, ok := percentile(vals, tc.q)
			if ok != (n >= tc.minimum) {
				t.Errorf("q=%v n=%d: reportable=%v", tc.q, n, ok)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{110, 150}}, 60},
		{"disjoint children", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping children count once", []interval{{110, 160}, {140, 180}}, 30},
		{"nested children", []interval{{110, 190}, {120, 130}}, 20},
		{"children clipped to parent", []interval{{50, 120}, {190, 250}}, 70},
		{"child outside parent", []interval{{10, 20}, {300, 400}}, 100},
		{"touching children", []interval{{100, 150}, {150, 200}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}
