package main

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/trace"
)

// countingSource wraps the payment source handed to RunDynamic. It
// counts the arrivals it hands over before the horizon (the engine
// must record each exactly once), times the source's Next when timed,
// and keeps the first keep payments for the layer replay.
type countingSource struct {
	src     trace.PaymentSource
	horizon float64
	timed   bool
	keep    int // payments to record for the replay

	arrivals int           // non-degenerate arrivals before the horizon
	nextTime time.Duration // time inside src.Next, when timed
	recorded []trace.Payment
}

// Next implements trace.PaymentSource.
func (s *countingSource) Next() (trace.Payment, float64, bool) {
	var start time.Time
	if s.timed {
		start = time.Now()
	}
	p, at, ok := s.src.Next()
	if s.timed {
		s.nextTime += time.Since(start)
	}
	// The engine stops pulling at the first arrival at or past the
	// horizon and skips degenerate payments without recording them.
	if ok && at < s.horizon && p.Sender != p.Receiver && p.Amount > 0 {
		s.arrivals++
		if len(s.recorded) < s.keep {
			s.recorded = append(s.recorded, p)
		}
	}
	return p, at, ok
}

// Validate forwards the source's self-check, which RunDynamic calls
// before scheduling.
func (s *countingSource) Validate() error {
	if v, ok := s.src.(interface{ Validate() error }); ok {
		return v.Validate()
	}
	return nil
}

// SetAmountScale forwards a demand shift to the source.
func (s *countingSource) SetAmountScale(factor float64) {
	if sh, ok := s.src.(interface{ SetAmountScale(float64) }); ok {
		sh.SetAmountScale(factor)
	}
}

// tracingSink is the traced run's flow sink: it collects each
// payment's routing wall time from FlowRecord.WallNS, split by the
// class the router gave it, and its probe rounds, and forwards the
// record to the workload's own sink, if any. It times the whole chain
// (chainTime) and the workload's sink alone (innerTime). RunDynamic
// with one worker emits from a single goroutine, so no locking is
// needed.
type tracingSink struct {
	inner telemetry.Sink // the workload's sink, or nil

	// elephant reports whether the router routed the payment as an
	// elephant; nil uses the record's class.
	elephant func(*telemetry.FlowRecord) bool

	chainTime time.Duration
	innerTime time.Duration
	routeTime time.Duration
	probeOps  int
	mouseNS   []float64
	elephNS   []float64
}

// Emit implements telemetry.Sink.
func (s *tracingSink) Emit(r *telemetry.FlowRecord) {
	start := time.Now()
	s.routeTime += time.Duration(r.WallNS)
	s.probeOps += r.ProbeRounds
	isElephant := r.Class == telemetry.ClassElephant
	if s.elephant != nil {
		isElephant = s.elephant(r)
	}
	if isElephant {
		s.elephNS = append(s.elephNS, float64(r.WallNS))
	} else {
		s.mouseNS = append(s.mouseNS, float64(r.WallNS))
	}
	if s.inner != nil {
		innerStart := time.Now()
		s.inner.Emit(r)
		s.innerTime += time.Since(innerStart)
	}
	s.chainTime += time.Since(start)
}

// sessionTimes accumulates the time a router spends inside session
// calls. Probes may run concurrently (Flash's probe pool), so covered
// is the union of the call intervals: the part of the Route interval
// that session calls cover.
type sessionTimes struct {
	mu         sync.Mutex
	active     int
	unionStart time.Time
	covered    time.Duration
}

// enter marks the start of a session call.
func (st *sessionTimes) enter() {
	now := time.Now()
	st.mu.Lock()
	if st.active == 0 {
		st.unionStart = now
	}
	st.active++
	st.mu.Unlock()
}

// leave marks the end of a session call.
func (st *sessionTimes) leave() {
	now := time.Now()
	st.mu.Lock()
	st.active--
	if st.active == 0 {
		st.covered += now.Sub(st.unionStart)
	}
	st.mu.Unlock()
}

// timedSession wraps a *pcn.Tx for the layer replay: it records the
// time the router spends in Probe, Hold, Commit and Abort, and forwards
// every optional capability the routers look for, so the wrapped
// session routes exactly as the bare one would.
type timedSession struct {
	tx    *pcn.Tx
	times *sessionTimes
}

var (
	_ route.Session        = (*timedSession)(nil)
	_ route.RandSource     = (*timedSession)(nil)
	_ route.ParallelProber = (*timedSession)(nil)
	_ route.LatencyMeter   = (*timedSession)(nil)
	_ route.ProbeCounter   = (*timedSession)(nil)
)

func (s *timedSession) Graph() *topo.Graph    { return s.tx.Graph() }
func (s *timedSession) Sender() topo.NodeID   { return s.tx.Sender() }
func (s *timedSession) Receiver() topo.NodeID { return s.tx.Receiver() }
func (s *timedSession) Demand() float64       { return s.tx.Demand() }
func (s *timedSession) HeldTotal() float64    { return s.tx.HeldTotal() }
func (s *timedSession) ProbeMessages() int    { return s.tx.ProbeMessages() }
func (s *timedSession) CommitMessages() int   { return s.tx.CommitMessages() }
func (s *timedSession) FeesPaid() float64     { return s.tx.FeesPaid() }
func (s *timedSession) PathsUsed() int        { return s.tx.PathsUsed() }

func (s *timedSession) LocalBalance(u, v topo.NodeID) float64 { return s.tx.LocalBalance(u, v) }

func (s *timedSession) Probe(path []topo.NodeID) ([]pcn.HopInfo, error) {
	s.times.enter()
	info, err := s.tx.Probe(path)
	s.times.leave()
	return info, err
}

func (s *timedSession) Hold(path []topo.NodeID, amount float64) error {
	s.times.enter()
	err := s.tx.Hold(path, amount)
	s.times.leave()
	return err
}

func (s *timedSession) Commit() error {
	s.times.enter()
	err := s.tx.Commit()
	s.times.leave()
	return err
}

func (s *timedSession) Abort() error {
	s.times.enter()
	err := s.tx.Abort()
	s.times.leave()
	return err
}

// RNG forwards route.RandSource.
func (s *timedSession) RNG() *rand.Rand { return s.tx.RNG() }

// SupportsParallelProbe forwards route.ParallelProber.
func (s *timedSession) SupportsParallelProbe() bool { return s.tx.SupportsParallelProbe() }

// PathLatencyNanos and CreditProbeLatency forward route.LatencyMeter.
func (s *timedSession) PathLatencyNanos(path []topo.NodeID) int64 {
	return s.tx.PathLatencyNanos(path)
}

func (s *timedSession) CreditProbeLatency(nanos int64) { s.tx.CreditProbeLatency(nanos) }

// ProbeOps forwards route.ProbeCounter.
func (s *timedSession) ProbeOps() int { return s.tx.ProbeOps() }
