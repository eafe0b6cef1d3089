package sim

import (
	"slices"

	"repro/internal/stats"
)

// LatencyStats is a streaming summary of payment completion latencies
// (virtual completion instant − first-attempt arrival, in seconds):
// count, sum and max exactly, and p50/p95/p99 via the P² streaming
// quantile estimator (stats.QuantileEstimator) — O(1) memory per
// window, deterministic for a deterministic observation order, which
// the Workers ≤ 1 engine guarantees.
//
// The zero value is ready to use and renders as "no observations";
// estimators are allocated lazily on the first Observe so
// latency-free runs never pay for them.
type LatencyStats struct {
	// Count, Sum and Max are exact over every observed latency.
	Count int
	Sum   float64
	Max   float64

	p50, p95, p99 *stats.QuantileEstimator
}

// Observe feeds one completion latency (seconds).
func (l *LatencyStats) Observe(v float64) {
	if l.p50 == nil {
		l.p50 = stats.NewQuantileEstimator(0.50)
		l.p95 = stats.NewQuantileEstimator(0.95)
		l.p99 = stats.NewQuantileEstimator(0.99)
	}
	l.Count++
	l.Sum += v
	if v > l.Max {
		l.Max = v
	}
	l.p50.Add(v)
	l.p95.Add(v)
	l.p99.Add(v)
}

// Mean returns the average observed latency, 0 when empty.
func (l *LatencyStats) Mean() float64 {
	if l.Count == 0 {
		return 0
	}
	return l.Sum / float64(l.Count)
}

// P50 returns the median completion latency estimate, 0 when empty.
func (l *LatencyStats) P50() float64 { return l.percentiles()[0] }

// P95 returns the 95th-percentile completion latency estimate, 0 when
// empty.
func (l *LatencyStats) P95() float64 { return l.percentiles()[1] }

// P99 returns the 99th-percentile completion latency estimate, 0 when
// empty.
func (l *LatencyStats) P99() float64 { return l.percentiles()[2] }

// percentiles returns the p50/p95/p99 readings in ascending order. The
// three P² estimators run independently, so on a steadily rising
// stream the p95 marker can overtake the p99 one; sorting the readings
// keeps P50 ≤ P95 ≤ P99.
func (l *LatencyStats) percentiles() [3]float64 {
	if l.p50 == nil {
		return [3]float64{}
	}
	q := [3]float64{l.p50.Quantile(), l.p95.Quantile(), l.p99.Quantile()}
	slices.Sort(q[:])
	return q
}
