package main

import (
	"slices"

	"repro/internal/stats"
)

// quartiles returns the three cut points of vs into four equal groups,
// with the method of Python's statistics.quantiles(vs, n=4) (its
// default "exclusive" method), so the spreads printed here match the
// ones computed over repeated runs. Fewer than two values give the
// single value (or zeros) for all three.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	switch len(vs) {
	case 0:
		return 0, 0, 0
	case 1:
		return vs[0], vs[0], vs[0]
	}
	data := slices.Clone(vs)
	slices.Sort(data)
	ld := len(data)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the inter-quartile distance of vs as a share of its
// median (0 when the median is 0).
func spread(vs []float64) float64 {
	q1, _, q3 := quartiles(vs)
	med := stats.Median(vs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// tailPercentiles are the candidates for a sample's reported tail,
// highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// minBeyondTail is how many samples must lie beyond a percentile for
// it to count as the sample's tail.
const minBeyondTail = 10

// tail returns the highest candidate percentile of vs with at least
// minBeyondTail samples beyond it, and its value. A sample too small
// for any candidate reports its median (pct 50); an empty one reports
// zeros.
func tail(vs []float64) (pct, value float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	n := float64(len(vs))
	for _, p := range tailPercentiles {
		// The tolerance absorbs the rounding of 100-p (100-99.9 is not
		// exactly 0.1 in binary).
		if n*(100-p)/100 >= minBeyondTail-1e-9 {
			return p, stats.Percentile(vs, p)
		}
	}
	return 50, stats.Median(vs)
}
