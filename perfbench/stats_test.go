package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // 0 means an error is expected
	}{
		{110, 0.9, 99}, // rank 99, 11 beyond
		{100, 0.9, 90}, // rank 90, exactly 10 beyond
		{99, 0.9, 0},   // rank 90, 9 beyond
		{20, 0.5, 10},  // rank 10, 10 beyond
		{19, 0.5, 0},   // rank 10, 9 beyond
		{0, 0.5, 0},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("percentile(%d samples, %v) = %v, want an error", tc.n, tc.p, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("percentile(%d samples, %v) = %v, %v; want %v", tc.n, tc.p, got, err, tc.want)
		}
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	xs := seq(200)
	if _, err := percentile(xs, 0.9); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 200 {
		t.Fatalf("percentile reordered its input: xs[0] = %v", xs[0])
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestGeomean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 4}, 2},
		{[]float64{2, 8, 4}, 4},
		{[]float64{1.837}, 1.837},
	} {
		got, err := geomean(tc.xs)
		if err != nil || math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("geomean(%v) = %v, %v; want %v", tc.xs, got, err, tc.want)
		}
	}
	for _, bad := range [][]float64{nil, {1, 0}, {1, -2}, {math.NaN()}, {math.Inf(1)}} {
		if got, err := geomean(bad); err == nil {
			t.Errorf("geomean(%v) = %v, want an error", bad, got)
		}
	}
}

func TestRates(t *testing.T) {
	got := rates(10, []time.Duration{time.Second, 2 * time.Second})
	if got[0] != 10 || got[1] != 5 {
		t.Fatalf("rates = %v, want [10 5]", got)
	}
}
