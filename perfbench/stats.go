package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// fewer than ten and the value is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule, refusing when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	rank := int(math.Ceil(q*float64(n))) - 1 // index of the q-quantile
	rank = max(rank, 0)
	if beyond := n - 1 - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, beyond, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank], nil
}

// sliceTail cuts xs, in arrival order, into the most consecutive slices
// that each hold enough samples for the q-quantile, and returns the
// median of the slices' quantiles: one burst then moves one slice, not
// the whole run's tail.
func sliceTail(xs []float64, q float64) (float64, int, error) {
	need := int(math.Ceil(minBeyond/(1-q) - 1e-9))
	k := max(len(xs)/need, 1)
	var tails []float64
	for i := range k {
		t, err := percentile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q)
		if err != nil {
			return 0, 0, err
		}
		tails = append(tails, t)
	}
	return median(tails), k, nil
}

// median is the middle value, averaging the two middle ones.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
