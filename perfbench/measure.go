package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/trace"
)

// sample is one assembled-and-run workload instance.
type sample struct {
	setup, topology, calibrate, router time.Duration

	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	liveHeap   uint64
	out        outcome
	res        sim.DynamicResult

	isFlash                bool
	flashStats             core.Stats
	holdsPlaced, holdsDone int64

	// Traced runs only.
	nextTime time.Duration   // time inside the source's Next
	recorded []trace.Payment // the first payments, for the layer replay
	sink     *tracingSink
}

// runOnce assembles a fresh instance of w and runs it through
// RunDynamic, checking funds conservation and arrival accounting.
// traced wraps the source and the flow sink with timers.
func runOnce(w workload, seed int64, traced bool) (sample, error) {
	var s sample
	base := liveHeap()
	in, err := w.assemble(seed)
	if err != nil {
		return s, err
	}
	s.setup, s.topology, s.calibrate, s.router = in.setupTime(), in.topologyTime, in.calibrateTime, in.routerTime

	src := &countingSource{src: in.source, horizon: w.horizon(), timed: traced}
	var sink telemetry.Sink
	if in.flows != nil {
		sink = in.flows
	}
	if traced {
		src.keep = w.ReplayPayments
		s.sink = &tracingSink{inner: sink}
		if fl := in.flash; fl != nil {
			// The record's class is judged against the fixed metrics
			// threshold; Flash classifies against its live per-sender
			// threshold, which the control plane moves. The workloads
			// have no hold spans on Flash, so a payment completes in the
			// event that routed it and the live threshold is the one
			// its routing saw.
			s.sink.elephant = func(r *telemetry.FlowRecord) bool {
				return r.Amount > fl.ThresholdFor(topo.NodeID(r.Sender))
			}
		}
		sink = s.sink
	}
	funds := in.net.TotalFunds()

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start, cpuStart := time.Now(), cpuTime()
	res, err := sim.RunDynamic(in.net, in.router, src, w.horizon(), in.churn, in.threshold, in.options(sink))
	s.wall, s.cpu = time.Since(start), cpuTime()-cpuStart
	runtime.ReadMemStats(&m1)
	if err != nil {
		return s, fmt.Errorf("run: %w", err)
	}
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.res = res
	s.out = outcomeOf(res)
	if err := checkFunds(funds, in.net.TotalFunds()); err != nil {
		return s, err
	}
	if err := checkArrivals(src.arrivals, res); err != nil {
		return s, err
	}
	s.nextTime, s.recorded = src.nextTime, src.recorded
	if in.flash != nil {
		s.isFlash = true
		s.flashStats = in.flash.Stats()
	}
	s.holdsPlaced, s.holdsDone = in.net.HoldsPlaced(), in.net.HoldsCommitted()

	// The instance's network, router tables and telemetry are still
	// reachable here.
	s.liveHeap = liveHeap() - base
	runtime.KeepAlive(in)
	return s, nil
}

// liveHeap returns the bytes of heap that survive a full collection.
// The second collection empties the sync.Pool victim caches the first
// one only demoted.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// instanceSeeds derives the seeds of a run's instances from the run
// seed.
func instanceSeeds(seed int64, n int) []int64 {
	rng := stats.NewRNG(seed, instanceStream)
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return seeds
}

// minRounds is the fewest rounds an end-to-end invocation makes, so
// that the determinism check compares at least two runs of every
// instance. A traced invocation compares each traced run with an
// untraced one instead, so one round suffices there.
const minRounds = 2

// minSetups is the fewest assemblies whose median setup_s reports.
const minSetups = 9

// maxRunTime caps one invocation's measuring, whatever the budget.
const maxRunTime = 120 * time.Second

// rounds calls step for every instance of w in turn, round after
// round, until the budget is spent and every instance has run at least
// least times. The budget is checked before each call, so a run
// overshoots it by at most one instance's step.
func rounds(w workload, least int, budget time.Duration, step func(round, inst int) error) error {
	begin := time.Now()
	for round := 0; ; round++ {
		for i := 0; i < w.Instances; i++ {
			spent := time.Since(begin)
			if round >= least && (spent >= budget || spent >= maxRunTime) {
				return nil
			}
			if err := step(round, i); err != nil {
				return fmt.Errorf("round %d, instance %d: %w", round+1, i, err)
			}
		}
	}
}

// tally checks each run against the first run of its instance and
// keeps the samples, per instance.
type tally struct {
	refs    []outcome
	samples [][]sample
}

func newTally(n int) *tally {
	return &tally{refs: make([]outcome, n), samples: make([][]sample, n)}
}

func (t *tally) add(inst int, s sample, what string) error {
	if len(t.samples[inst]) == 0 {
		t.refs[inst] = s.out
	} else if err := checkSame(t.refs[inst], s.out, what); err != nil {
		return err
	}
	t.samples[inst] = append(t.samples[inst], s)
	return nil
}

// payments is the number of payments one round routes.
func (t *tally) payments() int {
	n := 0
	for _, r := range t.refs {
		n += r.Payments
	}
	return n
}

// sumMedian sums, over instances, the median of f over that
// instance's samples.
func (t *tally) sumMedian(f func(sample) float64) float64 {
	total := 0.0
	for _, ss := range t.samples {
		vs := make([]float64, len(ss))
		for i, s := range ss {
			vs[i] = f(s)
		}
		total += stats.Median(vs)
	}
	return total
}

// runs is the number of samples kept.
func (t *tally) runs() int {
	n := 0
	for _, ss := range t.samples {
		n += len(ss)
	}
	return n
}

// all returns f over every sample.
func (t *tally) all(f func(sample) float64) []float64 {
	var vs []float64
	for _, ss := range t.samples {
		for _, s := range ss {
			vs = append(vs, f(s))
		}
	}
	return vs
}

// perRound returns, for each complete round, the payments of the round
// divided by the round's summed f.
func (t *tally) perRound(f func(sample) float64) []float64 {
	n := len(t.samples[0])
	for _, ss := range t.samples {
		n = min(n, len(ss))
	}
	vs := make([]float64, n)
	for r := range vs {
		sum := 0.0
		for _, ss := range t.samples {
			sum += f(ss[r])
		}
		vs[r] = float64(t.payments()) / sum
	}
	return vs
}

// endToEnd lists the end-to-end metrics in output order.
var endToEnd = []string{
	"payments_per_cpu_s", "setup_s", "allocs_per_payment", "alloc_bytes_per_payment",
	"live_heap_mb", "success_ratio", "success_volume_ratio", "msgs_per_payment",
}

// measureEndToEnd runs the instances of w in rounds until the budget is
// spent, checks that every run reproduces its instance's first, and
// reports the end-to-end metrics of one round: throughput and
// allocation over the medians of each instance's runs, quality over
// the pooled payments of all instances.
func measureEndToEnd(w workload, seed int64, budget time.Duration, log io.Writer) (result, error) {
	res := result{Metrics: map[string]metric{}}
	begin := time.Now()
	seeds := instanceSeeds(seed, w.Instances)
	t := newTally(w.Instances)
	err := rounds(w, minRounds, budget, func(round, i int) error {
		res.Attempted++
		s, err := runOnce(w, seeds[i], false)
		if err == nil {
			err = t.add(i, s, "repeat run")
		}
		if err != nil {
			res.Failed++
			return err
		}
		fmt.Fprintf(log, "# round %d instance %d: wall=%.3fs cpu=%.3fs payments=%d setup=%.4fs fingerprint=%016x\n",
			round+1, i, s.wall.Seconds(), s.cpu.Seconds(), s.out.Payments, s.setup.Seconds(), s.out.Fingerprint)
		return nil
	})
	if err != nil {
		return res, err
	}
	setups, err := setupSamples(w, seeds, t.all(func(s sample) float64 { return s.setup.Seconds() }))
	if err != nil {
		res.Failed++
		return res, err
	}

	n := float64(t.payments())
	ms := res.Metrics
	ms["payments_per_cpu_s"] = metric{n / t.sumMedian(func(s sample) float64 { return s.cpu.Seconds() }), "1/s"}
	ms["setup_s"] = metric{stats.Median(setups), "s"}
	ms["allocs_per_payment"] = metric{t.sumMedian(func(s sample) float64 { return float64(s.mallocs) }) / n, "count"}
	ms["alloc_bytes_per_payment"] = metric{t.sumMedian(func(s sample) float64 { return float64(s.allocBytes) }) / n, "B"}
	ms["live_heap_mb"] = metric{stats.Median(t.all(func(s sample) float64 { return float64(s.liveHeap) / (1 << 20) })), "MB"}

	var agg sim.Metrics
	for _, ss := range t.samples {
		agg.Merge(ss[0].res.Aggregate)
	}
	ms["success_ratio"] = metric{agg.SuccessRatio(), "ratio"}
	ms["success_volume_ratio"] = metric{agg.SuccessVolume / agg.AttemptVolume, "ratio"}
	ms["msgs_per_payment"] = metric{float64(agg.ProbeMessages+agg.CommitMessages) / n, "count"}

	note := map[string]string{
		"payments_per_cpu_s": fmt.Sprintf("per-round IQR %.2f%% of median; %.6g per wall-clock second",
			100*spread(t.perRound(func(s sample) float64 { return s.cpu.Seconds() })),
			n/t.sumMedian(func(s sample) float64 { return s.wall.Seconds() })),
		"setup_s": fmt.Sprintf("median of %d assemblies, IQR %.2f%% of median", len(setups), 100*spread(setups)),
	}
	printMetrics(log, endToEnd, ms, note)
	fmt.Fprintf(log, "# %d runs of %d instances in %.1fs, %d payments per round\n",
		res.Attempted, w.Instances, time.Since(begin).Seconds(), t.payments())
	res.Correct = true
	return res, nil
}

// setupSamples tops the runs' set-up times up with extra assemblies
// (not run) to at least minSetups values.
func setupSamples(w workload, seeds []int64, setups []float64) ([]float64, error) {
	for i := 0; len(setups) < minSetups; i++ {
		runtime.GC()
		in, err := w.assemble(seeds[i%len(seeds)])
		if err != nil {
			return nil, err
		}
		setups = append(setups, in.setupTime().Seconds())
	}
	return setups, nil
}
