package sim

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/event"
	"repro/internal/pcn"
	"repro/internal/topo"
	"repro/internal/trace"
)

// scaledSource is a hand-built PaymentSource with a fixed arrival plan
// that honours demand shifts — the fixture for the look-ahead rescale
// regression: unlike trace.Stream its amounts are exact, so the test
// can assert the precise post-shift value.
type scaledSource struct {
	arrivals []float64 // virtual arrival times
	amount   float64   // base amount of every payment
	scale    float64
	next     int
}

func newScaledSource(amount float64, arrivals ...float64) *scaledSource {
	return &scaledSource{arrivals: arrivals, amount: amount, scale: 1}
}

// Next implements trace.PaymentSource. Amounts are sampled at the
// *current* scale, exactly like trace.Stream: the look-ahead payment
// is drawn before any shift that lands between two arrivals.
func (s *scaledSource) Next() (trace.Payment, float64, bool) {
	if s.next >= len(s.arrivals) {
		return trace.Payment{}, 0, false
	}
	i := s.next
	s.next++
	p := trace.Payment{ID: i, Sender: 0, Receiver: topo.NodeID(1 + i%2), Amount: s.amount * s.scale}
	return p, s.arrivals[i], true
}

// SetAmountScale implements the demand-shift hook.
func (s *scaledSource) SetAmountScale(factor float64) {
	if factor > 0 {
		s.scale = factor
	}
}

// pcnNew wraps a graph in a network with uniform per-direction
// balances.
func pcnNew(t *testing.T, g *topo.Graph, bal float64) *pcn.Network {
	t.Helper()
	net := pcn.New(g)
	for _, e := range g.Channels() {
		if err := net.SetBalance(e.A, e.B, bal, bal); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// TestDemandShiftRescalesPendingArrival is the look-ahead regression:
// a demand shift landing between two arrivals must rescale the one
// already-sampled pending payment, so the first post-shift payment
// carries a post-shift amount. Before the fix it carried the pre-shift
// amount (the engine samples exactly one arrival ahead).
func TestDemandShiftRescalesPendingArrival(t *testing.T) {
	g := topo.New(3)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(0, 2)
	net := pcnNew(t, g, 1e6)

	// Arrivals at t=1 and t=3; the shift fires at t=2. When payment 0
	// arrives at t=1 the engine pulls payment 1 (the look-ahead) at the
	// old scale; the shift must rescale it before it arrives at t=3.
	src := newScaledSource(10, 1, 3)
	shift := []event.Event{{Time: 2, Kind: event.DemandShift, Amount: 5}}
	res, err := RunDynamic(net, baselineShortestPath(t), src, 10, shift, 1e9, DynamicOptions{Workers: 1, RecordLog: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.Payments != 2 {
		t.Fatalf("replayed %d payments, want 2", res.Aggregate.Payments)
	}
	// Payment 0 arrived pre-shift at amount 10; payment 1 must carry
	// 10 · 5 = 50, not the pre-shift 10 it was sampled at.
	if want := 10.0 + 50.0; math.Abs(res.Aggregate.AttemptVolume-want) > 1e-9 {
		t.Errorf("attempt volume %v, want %v (pending arrival not rescaled)", res.Aggregate.AttemptVolume, want)
	}
}

// TestDemandShiftReplayStreamUntouched: sources that do not support
// amount scaling (recorded traces) keep their exact recorded amounts —
// the rescale only applies where the shift itself applies.
func TestDemandShiftReplayStreamUntouched(t *testing.T) {
	g := topo.New(3)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(0, 2)
	net := pcnNew(t, g, 1e6)
	payments := []trace.Payment{
		{ID: 0, Sender: 0, Receiver: 1, Amount: 10, Time: 1 / trace.SecondsPerDay},
		{ID: 1, Sender: 0, Receiver: 2, Amount: 10, Time: 3 / trace.SecondsPerDay},
	}
	shift := []event.Event{{Time: 2, Kind: event.DemandShift, Amount: 5}}
	res, err := RunDynamic(net, baselineShortestPath(t), trace.NewReplayStream(payments), 10, shift, 1e9, DynamicOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := 20.0; math.Abs(res.Aggregate.AttemptVolume-want) > 1e-9 {
		t.Errorf("attempt volume %v, want %v (replayed amounts must not rescale)", res.Aggregate.AttemptVolume, want)
	}
}

// TestWindowsClampToHorizon is the window-overrun regression: service
// times large relative to the horizon schedule completions past it,
// which used to grow res.Windows beyond Horizon with End > Horizon.
// They now drain into the final window, whose End is clamped.
func TestWindowsClampToHorizon(t *testing.T) {
	g := topo.New(3)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(0, 2)
	net := pcnNew(t, g, 1e6)
	// Horizon 5, window 2 (so the last window is a partial [4,5)), mean
	// service 50 — essentially every completion lands past the horizon.
	src := newScaledSource(10, 0.5, 1, 1.5, 2, 4.5)
	res, err := RunDynamic(net, baselineShortestPath(t), src, 5, nil, 1e9,
		DynamicOptions{Workers: 1, Seed: 9, Window: 2, Service: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.Payments != 5 {
		t.Fatalf("replayed %d payments, want 5", res.Aggregate.Payments)
	}
	if n := len(res.Windows); n > 3 {
		t.Errorf("%d windows for a 5s horizon at width 2, want ≤ 3", n)
	}
	for _, w := range res.Windows {
		if w.End > res.Horizon {
			t.Errorf("window [%g,%g) overruns horizon %g", w.Start, w.End, res.Horizon)
		}
	}
	last := res.Windows[len(res.Windows)-1]
	if last.End != res.Horizon {
		t.Errorf("final window End = %g, want horizon %g", last.End, res.Horizon)
	}
	// Drain semantics: everything completed at t ≥ horizon is in the
	// final window, and the windows still decompose the aggregate.
	var sum Metrics
	for _, w := range res.Windows {
		sum.Merge(w.Metrics)
	}
	if sum.Payments != res.Aggregate.Payments {
		t.Errorf("windows sum %d payments, aggregate %d", sum.Payments, res.Aggregate.Payments)
	}
	if last.Metrics.Payments == 0 {
		t.Error("no completions drained into the final window")
	}

	// Float edge: horizon/window with representation error (9/0.009 =
	// 1000.0000000000001) must not mint a phantom zero-width bucket at
	// the horizon — the drain target is the genuine last window.
	g2 := topo.New(3)
	g2.MustAddChannel(0, 1)
	g2.MustAddChannel(0, 2)
	net2 := pcnNew(t, g2, 1e6)
	res2, err := RunDynamic(net2, baselineShortestPath(t), newScaledSource(10, 1, 5), 9, nil, 1e9,
		DynamicOptions{Workers: 1, Seed: 9, Window: 0.009, Service: 50})
	if err != nil {
		t.Fatal(err)
	}
	last2 := res2.Windows[len(res2.Windows)-1]
	if last2.Start >= last2.End {
		t.Errorf("phantom zero-width final window [%g,%g)", last2.Start, last2.End)
	}
	if last2.End != res2.Horizon {
		t.Errorf("final window End = %g, want horizon %g", last2.End, res2.Horizon)
	}
	if last2.Metrics.Payments != 2 {
		t.Errorf("final window drained %d payments, want 2", last2.Metrics.Payments)
	}
}

// TestShiftFactorValidation is the silent-bad-factor satellite: demand
// and fee shifts with zero, negative or non-finite factors are
// rejected at schedule-ingest time instead of no-opping invisibly.
func TestShiftFactorValidation(t *testing.T) {
	g := topo.New(3)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(0, 2)
	net := pcnNew(t, g, 1e6)
	for _, kind := range []event.Kind{event.DemandShift, event.FeeShift} {
		for _, factor := range []float64{0, -2, math.NaN(), math.Inf(1)} {
			src := newScaledSource(10, 1)
			churn := []event.Event{{Time: 2, Kind: kind, A: 0, B: 1, Amount: factor}}
			if _, err := RunDynamic(net, baselineShortestPath(t), src, 10, churn, 1e9, DynamicOptions{Workers: 1}); err == nil {
				t.Errorf("%v factor %v accepted", kind, factor)
			}
		}
	}
	// ThresholdUpdate is a reserved kind the engine no longer emits; it
	// must stay out of churn schedules entirely.
	src := newScaledSource(10, 1)
	churn := []event.Event{{Time: 2, Kind: event.ThresholdUpdate, Amount: 5}}
	if _, err := RunDynamic(net, baselineShortestPath(t), src, 10, churn, 1e9, DynamicOptions{Workers: 1}); err == nil {
		t.Error("threshold-update event in churn schedule accepted")
	}
}

// demandDriftCell builds one Flash cell of the demand-drift scenario
// at test scale and runs it under the given control policy (nil: the
// static threshold) against a fixed metrics threshold, so runs under
// different policies classify their per-class metrics identically and
// only the *routing* differs.
func demandDriftCell(t *testing.T, policy *control.Policy, metricsThreshold float64) (DynamicResult, float64) {
	t.Helper()
	sc, err := NamedDynamicScenario("demand-drift", KindRipple, 150)
	if err != nil {
		t.Fatal(err)
	}
	sc.Duration = 40
	net, err := BuildNetwork(sc.Kind, sc.Nodes, sc.ScaleFactor, 0, 0, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	threshold, err := calibrateThreshold(sc, net.Graph())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workloadFor(sc.Kind, net.Graph(), sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := sc.arrivalProcess()
	if err != nil {
		t.Fatal(err)
	}
	stream, err := trace.NewStream(gen, arr, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	churn := buildChurnSchedule(sc, net, nil, newChurnRNG(sc.Seed))
	r, err := BuildRouter(RouterSpec{Scheme: SchemeFlash, Threshold: threshold, Seed: sc.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if metricsThreshold == 0 {
		metricsThreshold = threshold
	}
	res, err := RunDynamic(net, r, stream, sc.Duration, churn, metricsThreshold, DynamicOptions{
		Workers: 1,
		Seed:    sc.Seed,
		Control: policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, threshold
}

// TestDemandDriftAdaptiveBeatsStatic is the tentpole's acceptance
// criterion. The demand-drift scenario collapses payment amounts 4×
// mid-run: the static control keeps classifying against the stale
// pre-shift 90th percentile, so the post-shift top decile — elephants
// of the new regime — routes over m cached mice paths instead of the
// k-path elephant algorithm (the paper's Figure 10 right edge: success
// volume drops when too many payments classify as mice). Both runs
// record metrics against the *true* post-shift threshold (amount
// scaling is monotone, so it is exactly factor · pre-shift threshold),
// making their per-class metrics directly comparable; the adaptive
// run's post-shift elephant success ratio must be strictly higher.
// Everything is seeded — the comparison is deterministic.
func TestDemandDriftAdaptiveBeatsStatic(t *testing.T) {
	sc, err := NamedDynamicScenario("demand-drift", KindRipple, 150)
	if err != nil {
		t.Fatal(err)
	}
	// First pass only to learn the calibrated pre-shift threshold.
	_, preThreshold := demandDriftCell(t, nil, 0)
	postThreshold := preThreshold * sc.DemandShiftFactor

	static, _ := demandDriftCell(t, nil, postThreshold)
	adaptiveRes, _ := demandDriftCell(t, &control.Policy{Threshold: "raw"}, postThreshold)

	shiftAt := 40 * sc.DemandShiftFrac
	postShift := func(res DynamicResult) (int, int) {
		elephants, successes := 0, 0
		for _, w := range res.Windows {
			if w.Start < shiftAt {
				continue
			}
			elephants += w.Metrics.ElephantPayments
			successes += w.Metrics.ElephantSuccesses
		}
		return elephants, successes
	}
	sp, ss := postShift(static)
	ap, as := postShift(adaptiveRes)
	if sp == 0 || ap == 0 {
		t.Fatalf("no post-shift elephants classified (static %d, adaptive %d)", sp, ap)
	}
	staticRatio := float64(ss) / float64(sp)
	adaptiveRatio := float64(as) / float64(ap)
	t.Logf("post-shift elephant success: static %d/%d (%.1f%%), adaptive %d/%d (%.1f%%)",
		ss, sp, 100*staticRatio, as, ap, 100*adaptiveRatio)
	if adaptiveRatio <= staticRatio {
		t.Errorf("adaptive post-shift elephant success ratio %.3f not strictly above static %.3f",
			adaptiveRatio, staticRatio)
	}
	// The adaptation must actually have happened: threshold updates
	// applied, and the final threshold tracked the 4× collapse.
	if adaptiveRes.ThresholdUpdates == 0 {
		t.Error("adaptive run never re-calibrated")
	}
	if adaptiveRes.FinalThreshold >= preThreshold {
		t.Errorf("final threshold %.4g did not drop below the pre-shift calibration %.4g",
			adaptiveRes.FinalThreshold, preThreshold)
	}
	if static.ThresholdUpdates != 0 || static.FinalThreshold != preThreshold {
		t.Errorf("static control drifted: %d updates, final %.4g (want 0 updates at %.4g)",
			static.ThresholdUpdates, static.FinalThreshold, preThreshold)
	}
}

// TestAdaptiveThresholdDeterministicReplay pins the adaptive mode's
// determinism contract at the CLI level: two identically-seeded
// demand-drift runs render byte-identical output (windows, thresholds,
// fingerprint — everything cmd/flashsim prints per scheme).
func TestAdaptiveThresholdDeterministicReplay(t *testing.T) {
	run := func() DynamicSchemeResult {
		sc, err := NamedDynamicScenario("demand-drift", KindRipple, 100)
		if err != nil {
			t.Fatal(err)
		}
		sc.Duration = 20
		sc.Schemes = []string{SchemeFlash}
		sc.Seed = 11
		results, err := RunDynamicScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		return results[0]
	}
	a, b := run(), run()
	if a.Result.Fingerprint != b.Result.Fingerprint {
		t.Fatalf("fingerprints diverged: %016x vs %016x", a.Result.Fingerprint, b.Result.Fingerprint)
	}
	var bufA, bufB bytes.Buffer
	WriteDynamicResult(&bufA, a.Scheme, a.Result, true)
	WriteDynamicResult(&bufB, b.Scheme, b.Result, true)
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Errorf("CLI rendering diverged across identical seeds:\n%s\nvs\n%s", bufA.String(), bufB.String())
	}
	// The run must actually exercise the adaptive path.
	if a.Result.EventCounts[event.ControlUpdate] == 0 {
		t.Error("no control updates applied in the adaptive scenario")
	}
	// The fingerprint covers the adaptive trajectory: a different seed
	// re-calibrates differently and must fingerprint differently.
	if got := a.Result.ThresholdUpdates; got == 0 {
		t.Error("no effective threshold changes in the adaptive scenario")
	}
}

// TestFeeWarScenario exercises the fee-war catalogue entry against its
// own paired control. Fees in pcn are an accounting metric (not
// deducted from balances), so a fee-blind scheme routes *identically*
// with and without the hub's repricing — which isolates the war's
// effect exactly: identical deliveries, strictly higher fees paid, and
// the difference confined to the post-shift windows.
func TestFeeWarScenario(t *testing.T) {
	run := func(factor float64) DynamicResult {
		sc, err := NamedDynamicScenario("fee-war", KindRipple, 100)
		if err != nil {
			t.Fatal(err)
		}
		sc.Duration = 20
		sc.Schemes = []string{SchemeShortestPath}
		sc.Seed = 3
		sc.FeeShiftFactor = factor
		results, err := RunDynamicScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		return results[0].Result
	}
	war, control := run(25), run(0)
	if war.EventCounts[event.FeeShift] == 0 {
		t.Fatal("fee-war scenario applied no fee shifts")
	}
	if control.EventCounts[event.FeeShift] != 0 {
		t.Fatal("control run applied fee shifts")
	}
	if war.Aggregate.Successes != control.Aggregate.Successes ||
		war.Aggregate.SuccessVolume != control.Aggregate.SuccessVolume {
		t.Errorf("fee shift changed deliveries of a fee-blind scheme: %+v vs %+v",
			war.Aggregate, control.Aggregate)
	}
	if war.Aggregate.FeesPaid <= control.Aggregate.FeesPaid {
		t.Errorf("hub fee war invisible in fees: %.4g <= %.4g",
			war.Aggregate.FeesPaid, control.Aggregate.FeesPaid)
	}
	// The repricing lands mid-run: pre-shift windows are identical.
	shiftAt := 20 * 0.5
	for i, w := range war.Windows {
		if w.End > shiftAt {
			break
		}
		if w.Metrics.FeesPaid != control.Windows[i].Metrics.FeesPaid {
			t.Errorf("pre-shift window %d fees diverged: %g vs %g",
				i, w.Metrics.FeesPaid, control.Windows[i].Metrics.FeesPaid)
		}
	}
}
