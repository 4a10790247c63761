package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile: a tail figure resting on fewer is noise, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of xs and
// the number of samples strictly beyond its rank. It refuses to report a
// percentile with fewer than minBeyond samples beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 || p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v of %d samples", p, len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if beyond := len(s) - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, len(s), beyond, minBeyond)
	}
	return s[rank-1], nil
}

// median returns the middle value of xs (the mean of the middle two for an
// even count); 0 for no samples.
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

// geomean returns the geometric mean of strictly positive xs.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geomean of no values")
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 1) {
			return 0, fmt.Errorf("geomean of non-positive or non-finite value %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// rates converts repeated timings of a fixed amount of work into per-second
// rates.
func rates(work float64, ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = work / d.Seconds()
	}
	return out
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
