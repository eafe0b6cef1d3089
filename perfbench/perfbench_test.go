package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/trace"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles(vs, n=4).
	cases := []struct {
		vs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
		{nil, 0, 0, 0},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.vs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.vs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	in := []float64{3, 1, 2}
	quartiles(in)
	if !slices.Equal(in, []float64{3, 1, 2}) {
		t.Errorf("quartiles reordered its input: %v", in)
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("spread of constants = %v, want 0", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread with zero median = %v, want 0", got)
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(i + 1)
		}
		return vs
	}
	cases := []struct {
		n       int
		wantPct float64
	}{
		{100000, 99.99},
		{10000, 99.9},
		{1000, 99},
		{999, 95},
		{200, 95},
		{100, 90},
		{40, 75},
		{20, 50},
		{5, 50},
	}
	for _, c := range cases {
		pct, v := tail(seq(c.n))
		if pct != c.wantPct {
			t.Errorf("tail of %d samples picked p%v, want p%v", c.n, pct, c.wantPct)
		}
		if beyond := c.n - int(math.Ceil(v)); c.n >= 20 && beyond < minBeyondTail-1 {
			t.Errorf("tail of %d samples: value %v leaves %d beyond", c.n, v, beyond)
		}
	}
	if pct, v := tail(nil); pct != 0 || v != 0 {
		t.Errorf("tail(nil) = %v, %v, want 0, 0", pct, v)
	}
	if _, v := tail([]float64{4, 1, 3, 2, 5}); v != 3 {
		t.Errorf("tail of 5 samples = %v, want the median 3", v)
	}
}

// scaledSource is a payment source with both optional capabilities.
type scaledSource struct {
	scale float64
	err   error
	n     int
}

func (s *scaledSource) Next() (trace.Payment, float64, bool) {
	s.n++
	return trace.Payment{ID: s.n, Sender: 0, Receiver: 1, Amount: s.scale}, float64(s.n), true
}
func (s *scaledSource) Validate() error               { return s.err }
func (s *scaledSource) SetAmountScale(factor float64) { s.scale = factor }

// bareSource has neither optional capability.
type bareSource struct{ n int }

func (s *bareSource) Next() (trace.Payment, float64, bool) {
	s.n++
	return trace.Payment{ID: s.n, Sender: 0, Receiver: 1, Amount: 1}, float64(s.n), true
}

func TestCountingSourceForwardsCapabilities(t *testing.T) {
	bad := errors.New("bad rate")
	inner := &scaledSource{scale: 1, err: bad}
	src := &countingSource{src: inner, horizon: 3, timed: true, keep: 1}
	if err := src.Validate(); !errors.Is(err, bad) {
		t.Errorf("Validate = %v, want the inner error", err)
	}
	src.SetAmountScale(0.25)
	if inner.scale != 0.25 {
		t.Errorf("SetAmountScale did not reach the inner source: scale %v", inner.scale)
	}
	for i := 0; i < 4; i++ {
		src.Next()
	}
	// Arrivals at 1 and 2 fall before the horizon; 3 and 4 do not.
	if src.arrivals != 2 || len(src.recorded) != 1 {
		t.Errorf("arrivals %d recorded %d, want 2 1", src.arrivals, len(src.recorded))
	}

	plain := &countingSource{src: &bareSource{}, horizon: 10}
	if err := plain.Validate(); err != nil {
		t.Errorf("Validate without the capability = %v", err)
	}
	plain.SetAmountScale(2) // must not panic
}

// countSink counts the records it receives.
type countSink struct{ n int }

func (c *countSink) Emit(*telemetry.FlowRecord) { c.n++ }

func TestTracingSinkForwardsAndClassifies(t *testing.T) {
	inner := &countSink{}
	s := &tracingSink{inner: inner}
	s.Emit(&telemetry.FlowRecord{Class: telemetry.ClassMouse, WallNS: 100, ProbeRounds: 2})
	s.Emit(&telemetry.FlowRecord{Class: telemetry.ClassElephant, WallNS: 300, ProbeRounds: 5})
	if inner.n != 2 {
		t.Errorf("inner sink saw %d records, want 2", inner.n)
	}
	if s.routeTime != 400 || s.probeOps != 7 || len(s.mouseNS) != 1 || len(s.elephNS) != 1 {
		t.Errorf("route %v probe ops %d mice %d elephants %d", s.routeTime, s.probeOps, len(s.mouseNS), len(s.elephNS))
	}
	if s.chainTime < s.innerTime || s.chainTime <= 0 {
		t.Errorf("chain time %v, inner time %v", s.chainTime, s.innerTime)
	}
	bare := &tracingSink{}
	bare.Emit(&telemetry.FlowRecord{}) // no inner sink: must not panic
	if bare.innerTime != 0 {
		t.Errorf("inner time %v without an inner sink", bare.innerTime)
	}
}

// lineNetwork is a funded 0–1–2–3 line with per-hop RTTs.
func lineNetwork(t *testing.T) *pcn.Network {
	t.Helper()
	net := pcn.New(topo.Line(4))
	for i := 0; i < 3; i++ {
		u, v := topo.NodeID(i), topo.NodeID(i+1)
		if err := net.SetBalance(u, v, 100, 100); err != nil {
			t.Fatal(err)
		}
		if err := net.SetLatency(u, v, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

func TestTimedSessionForwardsCapabilities(t *testing.T) {
	net := lineNetwork(t)
	tx, err := net.Begin(0, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	tx.SetRNGSeed(7)
	var s route.Session = &timedSession{tx: tx, times: &sessionTimes{}}

	rs, ok := s.(route.RandSource)
	if !ok || rs.RNG() == nil || rs.RNG() != tx.RNG() {
		t.Error("RandSource not forwarded")
	}
	pp, ok := s.(route.ParallelProber)
	if !ok || pp.SupportsParallelProbe() != tx.SupportsParallelProbe() {
		t.Error("ParallelProber not forwarded")
	}
	path := []topo.NodeID{0, 1, 2, 3}
	lm, ok := s.(route.LatencyMeter)
	if !ok || lm.PathLatencyNanos(path) != tx.PathLatencyNanos(path) || lm.PathLatencyNanos(path) == 0 {
		t.Error("LatencyMeter.PathLatencyNanos not forwarded")
	}
	if _, err := s.Probe(path); err != nil {
		t.Fatal(err)
	}
	before := tx.ProbeLatencyNanos()
	lm.CreditProbeLatency(1000)
	if tx.ProbeLatencyNanos() != before-1000 {
		t.Error("LatencyMeter.CreditProbeLatency not forwarded")
	}
	pc, ok := s.(route.ProbeCounter)
	if !ok || pc.ProbeOps() != 1 || tx.ProbeOps() != 1 {
		t.Error("ProbeCounter not forwarded")
	}
	if err := s.Hold(path, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := s.(*timedSession).times; st.covered <= 0 || st.active != 0 {
		t.Errorf("session times: covered %v active %d", st.covered, st.active)
	}
}

func TestTimedSessionRoutesLikeBareSession(t *testing.T) {
	// Flash with a probe pool routes an elephant through the wrapper
	// exactly as through the bare session.
	route1 := func(wrap bool) (int, int, float64, int) {
		net := lineNetwork(t)
		cfg := core.DefaultConfig(0) // every payment is an elephant
		cfg.ProbeWorkers = 2
		r := core.New(cfg)
		tx, err := net.Begin(0, 3, 50)
		if err != nil {
			t.Fatal(err)
		}
		var s route.Session = tx
		if wrap {
			s = &timedSession{tx: tx, times: &sessionTimes{}}
		}
		if err := r.Route(s); err != nil {
			t.Fatal(err)
		}
		return tx.ProbeMessages(), tx.CommitMessages(), tx.FeesPaid(), tx.ProbeOps()
	}
	a1, b1, c1, d1 := route1(false)
	a2, b2, c2, d2 := route1(true)
	if a1 != a2 || b1 != b2 || c1 != c2 || d1 != d2 {
		t.Errorf("bare %v %v %v %v, wrapped %v %v %v %v", a1, b1, c1, d1, a2, b2, c2, d2)
	}
}

func TestCheckFundsRejectsDrift(t *testing.T) {
	if err := checkFunds(1e6, 1e6+1e-6); err != nil {
		t.Errorf("rounding-level drift rejected: %v", err)
	}
	if err := checkFunds(1e6, 1e6-1); err == nil {
		t.Error("lost funds accepted")
	}
	if err := checkFunds(1e6, math.NaN()); err == nil {
		t.Error("NaN funds accepted")
	}
}

// goodResult is a consistent result for 10 handed-over arrivals.
func goodResult() sim.DynamicResult {
	var r sim.DynamicResult
	r.Aggregate.Payments = 10
	r.EventCounts[event.PaymentArrival] = 10
	r.EventCounts[event.PaymentComplete] = 8
	r.EventCounts[event.DeadlineExpiry] = 2
	return r
}

func TestCheckArrivalsRejectsMiscounts(t *testing.T) {
	if err := checkArrivals(10, goodResult()); err != nil {
		t.Fatalf("consistent result rejected: %v", err)
	}
	lost := goodResult()
	lost.Aggregate.Payments = 9
	double := goodResult()
	double.Aggregate.Payments = 11
	noArrival := goodResult()
	noArrival.EventCounts[event.PaymentArrival] = 9
	unsettled := goodResult()
	unsettled.EventCounts[event.DeadlineExpiry] = 1
	for name, r := range map[string]sim.DynamicResult{
		"lost payment": lost, "double count": double, "missing arrival": noArrival, "unsettled": unsettled,
	} {
		if err := checkArrivals(10, r); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := checkArrivals(0, sim.DynamicResult{}); err == nil {
		t.Error("empty run accepted")
	}
}

func TestCheckSameRejectsDivergence(t *testing.T) {
	ref := outcomeOf(goodResult())
	ref.Fingerprint = 0xabc
	if err := checkSame(ref, ref, "run"); err != nil {
		t.Fatalf("identical outcome rejected: %v", err)
	}
	fp := ref
	fp.Fingerprint++
	if err := checkSame(ref, fp, "run"); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("fingerprint change: %v", err)
	}
	vol := ref
	vol.SuccessVolume += 1
	if err := checkSame(ref, vol, "run"); err == nil {
		t.Error("changed success volume accepted")
	}
}

// tiny is a small, fast workload exercising every option.
func tiny(scheme string) workload {
	return workload{
		Name: "tiny", Scheme: scheme, Nodes: 60, Scale: 5, Rate: 200, Payments: 400,
		ChurnRate: 2, RebalanceRate: 2, DemandShift: 0.5,
		Service: 0.05, LatencyMedian: 0.01, LatencySigma: 0.5, Deadline: 0.1,
		Control: "ewma,sender", ProbeWorkers: 2, TableCap: 16, Telemetry: true,
		Instances: 2, ReplayPayments: 100,
	}
}

func TestRunOnceTracedReproducesUntraced(t *testing.T) {
	for _, scheme := range []string{sim.SchemeFlash, sim.SchemeShortestPath} {
		w := tiny(scheme)
		plain, err := runOnce(w, 3, false)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		traced, err := runOnce(w, 3, true)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if err := checkSame(plain.out, traced.out, "traced"); err != nil {
			t.Errorf("%s: %v", scheme, err)
		}
		if len(traced.recorded) != w.ReplayPayments || traced.nextTime <= 0 || traced.sink.innerTime <= 0 {
			t.Errorf("%s: traced run recorded %d payments, next %v, inner sink %v",
				scheme, len(traced.recorded), traced.nextTime, traced.sink.innerTime)
		}
		other, err := runOnce(w, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		if other.out.Fingerprint == plain.out.Fingerprint {
			t.Errorf("%s: seeds 3 and 4 share fingerprint %016x", scheme, plain.out.Fingerprint)
		}
	}
}

func TestMeasureReportsEveryMetric(t *testing.T) {
	w := tiny(sim.SchemeFlash)
	var log bytes.Buffer
	res, err := measureEndToEnd(w, 1, 0, &log)
	if err != nil || !res.Correct {
		t.Fatalf("end to end: %v\n%s", err, log.String())
	}
	if res.Attempted != minRounds*w.Instances || res.Failed != 0 {
		t.Errorf("attempted %d failed %d", res.Attempted, res.Failed)
	}
	for _, name := range endToEnd {
		if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) {
			t.Errorf("end-to-end metric %s = %+v", name, m)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics, want %d", len(res.Metrics), len(endToEnd))
	}

	res, err = measureLayers(w, 1, 0, &log)
	if err != nil || !res.Correct {
		t.Fatalf("layers: %v\n%s", err, log.String())
	}
	for _, l := range perLayer {
		if _, ok := res.Metrics[l.name]; !ok {
			t.Errorf("per-layer metric %s missing", l.name)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
	}
	for _, l := range perLayer {
		if v := res.Metrics[l.name].Value; math.IsNaN(v) || math.IsInf(v, 0) || v < -1 {
			t.Errorf("per-layer %s = %v", l.name, v)
		}
	}
	for _, name := range []string{"route.busy_share", "trace.busy_share", "graph.bfs_us", "core.mouse_self_us", "pcn.probe_ns", "pcn.hold_ns", "lp.solve_us"} {
		if !(res.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

func TestRunFailsCleanly(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"--workload", "nope"}, &out); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run([]string{"--workload", "flash-drift", "--trace", "2"}, &out); err == nil {
		t.Error("--trace 2 accepted")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Errorf("a result was printed for bad flags:\n%s", out.String())
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		wl, err := workloadByName(w.Name)
		if err != nil {
			t.Error(err)
		} else if wl.Why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json why %q, code %q", w.Name, w.Why, wl.Why)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the catalogue has %d", names, len(workloads))
	}
	var e2e []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end %v, code %v", e2e, endToEnd)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, code %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, code %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if b.RunSeconds < 1 || time.Duration(b.RunSeconds)*time.Second > maxRunTime {
		t.Errorf("run_seconds %d outside [1, %v]", b.RunSeconds, maxRunTime)
	}
}
