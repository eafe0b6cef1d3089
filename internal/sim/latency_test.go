package sim

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/topo"
	"repro/internal/trace"
)

// TestLatencyStats pins the estimator wrapper: exact count/sum/max,
// percentiles within the P² estimator's tolerance on a known
// distribution, and a zero value that reports zeros.
func TestLatencyStats(t *testing.T) {
	var zero LatencyStats
	if zero.Count != 0 || zero.Mean() != 0 || zero.P50() != 0 || zero.P95() != 0 || zero.P99() != 0 {
		t.Errorf("zero LatencyStats not zero: %+v", zero)
	}

	var l LatencyStats
	n := 10000
	for i := 0; i < n; i++ {
		l.Observe(float64(i+1) / float64(n)) // uniform (0, 1]
	}
	if l.Count != n {
		t.Errorf("Count = %d, want %d", l.Count, n)
	}
	if math.Abs(l.Mean()-0.5) > 1e-3 {
		t.Errorf("Mean = %v, want ~0.5", l.Mean())
	}
	if l.Max != 1 {
		t.Errorf("Max = %v, want 1", l.Max)
	}
	for _, c := range []struct {
		got, want, tol float64
		name           string
	}{
		{l.P50(), 0.50, 0.02, "p50"},
		{l.P95(), 0.95, 0.02, "p95"},
		{l.P99(), 0.99, 0.02, "p99"},
	} {
		if math.Abs(c.got-c.want) > c.tol {
			t.Errorf("%s = %v, want %v ± %v", c.name, c.got, c.want, c.tol)
		}
	}
	if !(l.P50() <= l.P95() && l.P95() <= l.P99() && l.P99() <= l.Max) {
		t.Errorf("percentiles not monotone: %v %v %v max %v", l.P50(), l.P95(), l.P99(), l.Max)
	}
}

// TestLatencyPercentilesMonotone feeds a steadily rising stream (the
// shape of queueing latencies on a griefed bridge) on which the raw
// p95 and p99 P² estimators cross, and checks that the reported
// percentiles stay ordered.
func TestLatencyPercentilesMonotone(t *testing.T) {
	var l LatencyStats
	for _, v := range []float64{30, 31, 32, 32, 35, 63, 67, 69, 71, 73, 76, 96, 109, 110, 110, 113, 114, 126, 166, 174, 199, 204} {
		l.Observe(v)
	}
	if raw95, raw99 := l.p95.Quantile(), l.p99.Quantile(); raw95 <= raw99 {
		t.Fatalf("fixture no longer crosses the raw estimators: p95 %v <= p99 %v", raw95, raw99)
	}
	if !(l.P50() <= l.P95() && l.P95() <= l.P99()) {
		t.Errorf("percentiles not monotone: p50 %v p95 %v p99 %v", l.P50(), l.P95(), l.P99())
	}
}

// latencyScenario is the latency-slo catalogue cell at test scale.
func latencyScenario(t *testing.T, name string) DynamicScenario {
	t.Helper()
	sc, err := NamedDynamicScenario(name, KindRipple, 60)
	if err != nil {
		t.Fatal(err)
	}
	sc.Duration = 12
	sc.Rate = 8
	sc.Schemes = []string{SchemeFlash}
	sc.Seed = 42
	return sc
}

// TestDynamicLatencyDeterministicRender is the latency model's
// determinism guarantee at the CLI's observable level: the same seed
// at workers=1 yields byte-identical rendered tables — latency
// percentile columns included — and identical fingerprints.
func TestDynamicLatencyDeterministicRender(t *testing.T) {
	run := func() (string, uint64) {
		results, err := RunDynamicScenario(latencyScenario(t, "latency-slo"))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		WriteDynamicResult(&buf, results[0].Scheme, results[0].Result, false)
		return buf.String(), results[0].Result.Fingerprint
	}
	outA, fpA := run()
	outB, fpB := run()
	if fpA != fpB {
		t.Fatalf("fingerprints diverged: %x vs %x", fpA, fpB)
	}
	if outA != outB {
		t.Fatalf("rendered output diverged:\n--- A ---\n%s\n--- B ---\n%s", outA, outB)
	}
	if !strings.Contains(outA, "p50 lat") || !strings.Contains(outA, "p95 lat") || !strings.Contains(outA, "p99 lat") {
		t.Errorf("latency-on render missing percentile columns:\n%s", outA)
	}
}

// TestDynamicLatencyOffRenderUnchanged guards the nil path at the
// render layer: with no RTTs and no deadline the result reports
// LatencyOn=false and the table carries none of the latency columns or
// the expiry footer — the shape every pre-latency golden was recorded
// against. (The engine-level byte identity is pinned separately by
// TestDynamicZeroChurnEquivalence against the seed goldens.)
func TestDynamicLatencyOffRenderUnchanged(t *testing.T) {
	sc := latencyScenario(t, "steady")
	results, err := RunDynamicScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0].Result
	if res.LatencyOn {
		t.Error("steady scenario reports LatencyOn")
	}
	if res.DeadlineExpiries != 0 || res.Latency.Count != 0 {
		t.Errorf("latency-off run accumulated latency state: %+v", res.Latency)
	}
	var buf bytes.Buffer
	WriteDynamicResult(&buf, results[0].Scheme, res, false)
	out := buf.String()
	for _, banned := range []string{"p50 lat", "p95 lat", "p99 lat", "deadline expiries"} {
		if strings.Contains(out, banned) {
			t.Errorf("latency-off render contains %q:\n%s", banned, out)
		}
	}
	var jsonBuf bytes.Buffer
	if err := WriteDynamicJSON(&jsonBuf, results[0].Scheme, res); err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{`"latency"`, `"deadline"`, `"deadlineExpiries"`} {
		if strings.Contains(jsonBuf.String(), banned) {
			t.Errorf("latency-off JSON contains %s:\n%s", banned, jsonBuf.String())
		}
	}
}

// TestDeadlineExpiryDeterminism pins the expiry path's determinism:
// the same seed yields the same fingerprint with DeadlineExpiry events
// in the stream, and the expiry count is stable.
func TestDeadlineExpiryDeterminism(t *testing.T) {
	run := func() DynamicResult {
		sc := latencyScenario(t, "griefing")
		sc.Duration = 20
		sc.Rate = 6
		results, err := RunDynamicScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		return results[0].Result
	}
	a, b := run(), run()
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints diverged: %x vs %x", a.Fingerprint, b.Fingerprint)
	}
	if a.DeadlineExpiries != b.DeadlineExpiries {
		t.Fatalf("expiry counts diverged: %d vs %d", a.DeadlineExpiries, b.DeadlineExpiries)
	}
	if a.DeadlineExpiries == 0 {
		t.Error("griefing scenario produced no deadline expiries")
	}
	if got := a.EventCounts[event.DeadlineExpiry]; got != a.DeadlineExpiries {
		t.Errorf("event count %d != DeadlineExpiries %d", got, a.DeadlineExpiries)
	}
}

// TestDynamicDeadlineConcurrentRace drives the griefing scenario on
// real goroutines so deadline expiries race live Resume calls under
// the race detector — the engine-level counterpart of the pcn span
// claim test.
func TestDynamicDeadlineConcurrentRace(t *testing.T) {
	sc := latencyScenario(t, "griefing")
	sc.Duration = 15
	sc.Workers = 4
	results, err := RunDynamicScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0].Result
	m := res.Aggregate
	if m.Payments == 0 {
		t.Fatal("no payments replayed")
	}
	if m.Successes > m.Payments || m.SuccessVolume > m.AttemptVolume+1e-9 {
		t.Errorf("inconsistent metrics: %+v", m)
	}
	if res.DeadlineExpiries == 0 {
		t.Error("concurrent griefing run produced no deadline expiries")
	}
}

// TestSettleLoggedOncePerAttempt checks that every attempt's arrival
// pairs with exactly one logged settle event, complete or expiry. On
// concurrent stations the harvest that learns an outcome reschedules
// the attempt to its RTT- and deadline-aware instant; only that later
// event settles and may be logged.
func TestSettleLoggedOncePerAttempt(t *testing.T) {
	for _, workers := range []int{1, 2} {
		sc := latencyScenario(t, "griefing")
		sc.Duration = 10
		sc.Rate = 6
		sc.Seed = 3
		sc.Workers = workers
		results, err := RunDynamicScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		res := results[0].Result
		c := res.EventCounts
		if c[event.PaymentArrival] == 0 || c[event.DeadlineExpiry] == 0 {
			t.Fatalf("workers=%d: run too small to check: %v", workers, c)
		}
		if got, want := c[event.PaymentComplete]+c[event.DeadlineExpiry], c[event.PaymentArrival]; got != want {
			t.Errorf("workers=%d: %d settle events (%d complete + %d expiry) for %d arrivals",
				workers, got, c[event.PaymentComplete], c[event.DeadlineExpiry], want)
		}
		if c[event.DeadlineExpiry] != res.DeadlineExpiries {
			t.Errorf("workers=%d: %d expiry events, %d expiries", workers, c[event.DeadlineExpiry], res.DeadlineExpiries)
		}
	}
}

// TestGriefingPairedControl demonstrates the attack and its defence
// with paired controls: against the no-attack baseline, griefers
// pinning bridge liquidity collapse the success ratio when expiry is
// disabled, and the HTLC deadline claws a large part of it back by
// tearing the griefed holds down.
func TestGriefingPairedControl(t *testing.T) {
	run := func(mut func(*DynamicScenario)) DynamicResult {
		sc := latencyScenario(t, "griefing")
		sc.Duration = 30
		sc.Rate = 6
		mut(&sc)
		results, err := RunDynamicScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		return results[0].Result
	}
	clean := run(func(sc *DynamicScenario) { sc.GriefFrac = 0 })
	defended := run(func(sc *DynamicScenario) {})
	undefended := run(func(sc *DynamicScenario) { sc.Deadline = 0 })

	if defended.DeadlineExpiries == 0 {
		t.Error("defended run tore down no griefed holds")
	}
	if defended.DeadlineExpiries <= clean.DeadlineExpiries {
		// Honest exponential service occasionally outlives the deadline
		// too; the attack's signature is the expiry excess over that
		// baseline, every extra one a griefed hold torn down.
		t.Errorf("attack caused no excess expiries: defended %d <= clean %d",
			defended.DeadlineExpiries, clean.DeadlineExpiries)
	}
	rClean := clean.Aggregate.SuccessRatio()
	rDef := defended.Aggregate.SuccessRatio()
	rUndef := undefended.Aggregate.SuccessRatio()
	if !(rClean > rDef) {
		t.Errorf("attack invisible: clean %.3f <= defended %.3f", rClean, rDef)
	}
	if !(rDef > rUndef) {
		t.Errorf("deadline defence invisible: defended %.3f <= undefended %.3f", rDef, rUndef)
	}
}

// TestExactVirtualTimeAccounting is the latency model's central
// property: every scheduled settle, expiry, and retry time is the
// exact float64 sum of its audited components, the chain of decisions
// for one payment is gapless (each decision starts at the previous
// event's instant), and a payment's final completion time replayed
// from its audit chain reproduces the logged event time bit for bit —
// completion == arrival + charged latency + service + resume legs +
// retry backoffs, with no hidden terms.
func TestExactVirtualTimeAccounting(t *testing.T) {
	const deadline = 3.0
	net, err := BuildNetwork(KindRipple, 60, 10, 0, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	net.AssignLatenciesLogNormal(newLatencyRNG(7), 0.05, 0.8)
	cfg := trace.DefaultConfig(net.Graph().NumNodes())
	cfg.Graph = net.Graph()
	cfg.Seed = 7
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payments := gen.Generate(200)
	threshold := core.ThresholdForMiceFraction(trace.Amounts(payments), 0.9)
	r, err := NewRouter(SchemeFlash, threshold, 0, 0, false, 7)
	if err != nil {
		t.Fatal(err)
	}

	var audits []schedAudit
	opts := DynamicOptions{
		Workers: 1, Seed: 7, Retries: 2, Service: 1, Deadline: deadline, RecordLog: true,
		audit: func(a schedAudit) { audits = append(audits, a) },
	}
	horizon := (payments[len(payments)-1].Time + 1) * trace.SecondsPerDay
	res, err := RunDynamic(net, r, trace.NewReplayStream(payments), horizon, nil, threshold, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(audits) == 0 {
		t.Fatal("audit hook never fired")
	}

	// Per-decision identity: the scheduled time IS the sum, bitwise.
	expired := 0
	for i, a := range audits {
		var want float64
		switch {
		case a.Retry:
			want = a.At + a.Backoff
		case a.Expired:
			want = a.At + a.Lat + deadline
		default:
			want = a.At + a.Lat + a.Service + a.ResumeLat
		}
		if a.EventAt != want {
			t.Fatalf("audit %d: EventAt %v != component sum %v (%+v)", i, a.EventAt, want, a)
		}
		if a.Expired {
			expired++
		}
	}
	if expired != res.DeadlineExpiries {
		t.Errorf("audited expiries %d != result's %d", expired, res.DeadlineExpiries)
	}

	// Chain reconstruction: group the log's terminal events and the
	// audits per payment, then replay each chain from its first
	// arrival. Exact float64 equality at every link.
	arrivals := map[int64]float64{}   // first-attempt arrival instants
	terminal := map[int64][]float64{} // settle/expiry event times in order
	for _, e := range res.Log {
		switch e.Kind {
		case event.PaymentArrival:
			if e.Attempt == 0 {
				arrivals[e.ID] = e.Time
			}
		case event.PaymentComplete, event.DeadlineExpiry:
			terminal[e.ID] = append(terminal[e.ID], e.Time)
		}
	}
	byID := map[int64][]schedAudit{}
	ids := []int64{}
	for _, a := range audits {
		if len(byID[a.ID]) == 0 {
			ids = append(ids, a.ID)
		}
		byID[a.ID] = append(byID[a.ID], a)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	checked := 0
	for _, id := range ids {
		chain := byID[id]
		arrival, ok := arrivals[id]
		if !ok {
			t.Fatalf("payment %d audited but never arrived in the log", id)
		}
		x := arrival
		settleIdx := 0
		for _, a := range chain {
			if a.At != x {
				t.Fatalf("payment %d: decision starts at %v, previous event ended at %v (%+v)", id, a.At, x, a)
			}
			switch {
			case a.Retry:
				x = a.At + a.Backoff
			case a.Expired:
				x = a.At + a.Lat + deadline
			default:
				x = a.At + a.Lat + a.Service + a.ResumeLat
			}
			if !a.Retry {
				// A settle/expiry decision must reproduce the logged
				// event instant exactly.
				times := terminal[id]
				if settleIdx >= len(times) {
					t.Fatalf("payment %d: more audited settles than logged events", id)
				}
				if times[settleIdx] != x {
					t.Fatalf("payment %d settle %d: log says %v, audit chain says %v", id, settleIdx, times[settleIdx], x)
				}
				settleIdx++
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no settle decisions cross-checked against the log")
	}
	if res.Latency.Count == 0 {
		t.Error("no completion latencies observed despite RTTs on")
	}
}

// TestConcurrentExpiryChargesLatency pins the expiry instant of a
// concurrent station: a span that cannot settle within its deadline
// expires at dispatch + charged probe/commit latency + deadline — the
// Deadline contract, and exactly what the single station schedules —
// even though a concurrent station only learns its latency at
// harvest, one service time after dispatch. One payment, griefed so
// its service time is pinned just under the deadline and the settle
// legs tip it over.
func TestConcurrentExpiryChargesLatency(t *testing.T) {
	const deadline, hold, arrival = 2.0, 1.99, 1.0
	expiryAt := map[int]float64{}
	for _, workers := range []int{1, 2} {
		g := topo.New(3)
		g.MustAddChannel(0, 1)
		g.MustAddChannel(0, 2)
		net := pcnNew(t, g, 1e6)
		for _, e := range g.Channels() {
			if err := net.SetLatency(e.A, e.B, 0.05); err != nil {
				t.Fatal(err)
			}
		}
		var audits []schedAudit
		res, err := RunDynamic(net, baselineShortestPath(t), newScaledSource(10, arrival), 10, nil, 1e9, DynamicOptions{
			Workers: workers, Seed: 3, Service: 1, Deadline: deadline,
			GriefFrac: 1, GriefHold: hold, RecordLog: true,
			audit: func(a schedAudit) { audits = append(audits, a) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.DeadlineExpiries != 1 {
			t.Fatalf("workers=%d: %d expiries, want 1", workers, res.DeadlineExpiries)
		}
		if len(audits) != 1 || !audits[0].Expired {
			t.Fatalf("workers=%d: audits %+v, want one expiry decision", workers, audits)
		}
		a := audits[0]
		if a.At != arrival || a.Service != hold || !(a.Lat > 0) || !(a.Service+a.ResumeLat > deadline) {
			t.Fatalf("workers=%d: audit %+v, want dispatch at %v, service %v, latency charged, settle past the deadline",
				workers, a, arrival, hold)
		}
		want := a.At + a.Lat + deadline
		for _, e := range res.Log {
			if e.Kind == event.DeadlineExpiry {
				expiryAt[workers] = e.Time
			}
		}
		if expiryAt[workers] != want || a.EventAt != want {
			t.Errorf("workers=%d: expiry logged at %v, audited at %v, want %v = dispatch + latency + deadline",
				workers, expiryAt[workers], a.EventAt, want)
		}
	}
	if expiryAt[1] != expiryAt[2] {
		t.Errorf("single station expires at %v, concurrent stations at %v", expiryAt[1], expiryAt[2])
	}
}
