package stats

import (
	"math"
	"math/rand"
	"slices"
)

// LogNormal draws from a log-normal distribution with the given median and
// shape sigma (the standard deviation of the underlying normal). The
// Ripple/Bitcoin payment-size bodies in the paper's traces are modelled
// this way.
func LogNormal(rng *rand.Rand, median, sigma float64) float64 {
	return median * math.Exp(rng.NormFloat64()*sigma)
}

// Pareto draws from a Pareto(xm, alpha) distribution: heavy-tailed with
// minimum xm. Used for the elephant tail of the payment-size mixtures.
func Pareto(rng *rand.Rand, xm, alpha float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Zipf draws an integer in [0, n) with probability proportional to
// 1/(rank+1)^s. It is used for clustered receiver selection (a sender's
// top-5 recurring receivers dominate, per the paper's Figure 4b).
//
// The cumulative weight table is grow-only: the weights of the first n
// ranks are the same for every table size, and cum[i] is their running
// sum in rank order, so the first n entries of a longer table equal an
// n-rank table bit for bit. DrawN therefore serves every n from one
// table.
type Zipf struct {
	s   float64
	cum []float64 // cumulative unnormalised weights
}

// NewZipf precomputes the cumulative weight table for n ranks with
// exponent s. Draw needs n ≥ 1; a table built with n = 0 serves DrawN.
func NewZipf(n int, s float64) *Zipf {
	z := &Zipf{s: s}
	z.grow(n)
	return z
}

// grow extends the table to n ranks, continuing the running sum.
func (z *Zipf) grow(n int) {
	if n <= len(z.cum) {
		return
	}
	z.cum = slices.Grow(z.cum, n-len(z.cum))
	for i := len(z.cum); i < n; i++ {
		total := 0.0
		if i > 0 {
			total = z.cum[i-1]
		}
		z.cum = append(z.cum, total+1/math.Pow(float64(i+1), z.s))
	}
}

// Draw samples a rank in [0, N()).
func (z *Zipf) Draw(rng *rand.Rand) int { return z.DrawN(rng, len(z.cum)) }

// DrawN samples a rank in [0, n) from the n-rank distribution with the
// table's exponent, growing the table first if it has fewer than n
// ranks. It consumes the same random number and returns the same rank
// as NewZipf(n, s).Draw. n must be ≥ 1.
func (z *Zipf) DrawN(rng *rand.Rand, n int) int {
	z.grow(n)
	cum := z.cum[:n]
	target := rng.Float64() * cum[n-1]
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cum) }
