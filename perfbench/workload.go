package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// workload is one benchmark input: a topology, a payment stream, a
// router and a churn schedule, all drawn from the run's seed. Payments
// fixes the input size: the stream's horizon is Payments/Rate virtual
// seconds, so every run of a workload routes the same number of
// arrivals.
type workload struct {
	Name string
	Why  string

	Scheme   string
	Nodes    int
	Scale    float64
	Rate     float64 // Poisson arrivals per virtual second
	Payments int     // expected arrivals; sets the horizon

	ChurnRate     float64 // channel close/reopen toggles per virtual second
	RebalanceRate float64 // rebalances per virtual second
	DemandShift   float64 // amount scale factor applied at mid-run; 0 = none

	Service       float64 // mean hold span, virtual seconds; 0 = atomic
	LatencyMedian float64 // per-hop RTT median, seconds; 0 = no latency model
	LatencySigma  float64
	Deadline      float64 // HTLC expiry of a hold span, seconds

	Control      string // control.ParsePolicy spec
	ProbeWorkers int
	TableCap     int

	Telemetry bool // attach FlowLog(1024) and a MetricsRegistry

	// Instances is how many independently seeded instances one run
	// routes, each Payments long; pooling them narrows the
	// seed-to-seed spread of every metric.
	Instances int

	// ReplayPayments bounds the layer replay of a traced run.
	ReplayPayments int
}

// miceFraction is the paper's calibration: 90% of payments are mice.
const miceFraction = 0.9

// workloads is the benchmark's catalogue, in presentation order.
var workloads = []workload{
	{
		Name:     "sp-holdspan",
		Why:      "one BFS per payment on a small graph, so event dispatch, trace generation, pcn holds and live telemetry dominate",
		Scheme:   sim.SchemeShortestPath,
		Nodes:    200,
		Scale:    10,
		Rate:     1000,
		Payments: 60000,

		ChurnRate:     1,
		RebalanceRate: 1,

		Service:       0.05,
		LatencyMedian: 0.02,
		LatencySigma:  0.8,
		Deadline:      0.1,

		Telemetry:      true,
		Instances:      4,
		ReplayPayments: 4000,
	},
	{
		Name:     "flash-drift",
		Why:      "elephants run the speculative probe pipeline and Yen, and the controllers shift the mice/elephant mix mid-run",
		Scheme:   sim.SchemeFlash,
		Nodes:    150,
		Scale:    2,
		Rate:     500,
		Payments: 10000,

		DemandShift: 0.25,

		Control:        "ewma,sender",
		ProbeWorkers:   2,
		Instances:      8,
		ReplayPayments: 2000,
	},
	{
		Name:     "flash-10k",
		Why:      "mice routing-table misses run Yen on a 10k-node graph, so graph search dominates the run and topology build the set-up",
		Scheme:   sim.SchemeFlash,
		Nodes:    10000,
		Scale:    10,
		Rate:     1000,
		Payments: 1500,

		ChurnRate:     1,
		RebalanceRate: 1,

		TableCap:       4096,
		Instances:      6,
		ReplayPayments: 300,
	},
}

// workloadByName looks a workload up in the catalogue.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// horizon is the workload's virtual run length in seconds.
func (w workload) horizon() float64 { return float64(w.Payments) / w.Rate }

// instance is one assembled workload, ready to run once: RunDynamic
// mutates the network and the router's tables, so every run assembles
// a fresh instance from the same seed.
type instance struct {
	w         workload
	seed      int64
	net       *pcn.Network
	router    route.Router
	flash     *core.Flash // router as Flash, nil for other schemes
	threshold float64
	source    trace.PaymentSource
	churn     []event.Event
	policy    *control.Policy
	flows     *telemetry.FlowLog
	registry  *telemetry.Registry

	// CPU time of each set-up phase.
	topologyTime, calibrateTime, routerTime time.Duration
}

// setupTime is the CPU time of the whole assembly.
func (in *instance) setupTime() time.Duration {
	return in.topologyTime + in.calibrateTime + in.routerTime
}

// buildNetwork draws the workload's funded topology, with per-hop RTTs
// when the workload has a latency model.
func (w workload) buildNetwork(seed int64) (*pcn.Network, error) {
	net, err := sim.BuildNetwork(sim.KindRipple, w.Nodes, w.Scale, 0, 0, seed)
	if err != nil {
		return nil, err
	}
	if w.LatencyMedian > 0 {
		net.AssignLatenciesLogNormal(stats.NewRNG(seed, latencyStream), w.LatencyMedian, w.LatencySigma)
	}
	return net, nil
}

// generator builds the workload's payment generator over net's graph.
func (w workload) generator(net *pcn.Network, seed int64) (*trace.Generator, error) {
	cfg := trace.DefaultConfig(w.Nodes)
	cfg.Graph = net.Graph()
	cfg.Seed = seed
	return trace.NewGenerator(cfg)
}

// routerSpec is the router the workload runs, at the given threshold.
func (w workload) routerSpec(threshold float64, seed int64) sim.RouterSpec {
	return sim.RouterSpec{
		Scheme:       w.Scheme,
		Threshold:    threshold,
		ProbeWorkers: w.ProbeWorkers,
		TableCap:     w.TableCap,
		Seed:         seed,
	}
}

// Independent random streams the benchmark draws from the seed.
const (
	latencyStream  = 0x1A7E
	churnStream    = 0xC4A2
	instanceStream = 0x1257
)

// assemble builds one instance from public entry points, timing the
// CPU time of each set-up phase: topology, threshold calibration, then
// router, source, churn schedule and telemetry.
func (w workload) assemble(seed int64) (*instance, error) {
	in := &instance{w: w, seed: seed}

	start := cpuTime()
	net, err := w.buildNetwork(seed)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	in.net = net
	in.topologyTime = cpuTime() - start

	// The threshold is the mice-fraction quantile of a sample from an
	// identically seeded throwaway generator, whose payments are the
	// prefix of the stream the run will route.
	start = cpuTime()
	calib, err := w.generator(net, seed)
	if err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	in.threshold = core.ThresholdForMiceFraction(trace.Amounts(calib.Generate(min(w.Payments, 4000))), miceFraction)
	in.calibrateTime = cpuTime() - start

	start = cpuTime()
	if err := in.buildRouterAndSource(); err != nil {
		return nil, err
	}
	in.routerTime = cpuTime() - start
	return in, nil
}

func (in *instance) buildRouterAndSource() error {
	w := in.w
	r, err := sim.BuildRouter(w.routerSpec(in.threshold, in.seed))
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}
	in.router = r
	in.flash, _ = r.(*core.Flash)

	gen, err := w.generator(in.net, in.seed)
	if err != nil {
		return fmt.Errorf("source: %w", err)
	}
	in.source, err = trace.NewStream(gen, trace.Poisson{Rate: w.Rate}, in.seed)
	if err != nil {
		return fmt.Errorf("source: %w", err)
	}
	in.churn = w.drawChurn(in.net, stats.NewRNG(in.seed, churnStream))

	if w.Control != "" {
		p, err := control.ParsePolicy(w.Control)
		if err != nil {
			return fmt.Errorf("control: %w", err)
		}
		in.policy = &p
	}
	if w.Telemetry {
		in.flows = telemetry.NewFlowLog(1024)
		in.registry = telemetry.NewRegistry()
		sim.RegisterRouterMetrics(in.registry, w.Scheme, r)
		sim.RegisterNetworkMetrics(in.registry, w.Scheme, in.net)
	}
	return nil
}

// drawChurn draws the workload's churn schedule: Poisson close/reopen
// toggles over the initial channels, Poisson rebalances, and the
// optional mid-run demand shift. Reopened channels keep their frozen
// balances, so the schedule never adds or removes funds.
func (w workload) drawChurn(net *pcn.Network, rng *rand.Rand) []event.Event {
	chans := net.Graph().Channels()
	horizon := w.horizon()
	var events []event.Event
	if w.ChurnRate > 0 {
		closed := make([]bool, len(chans))
		for t := rng.ExpFloat64() / w.ChurnRate; t < horizon; t += rng.ExpFloat64() / w.ChurnRate {
			i := rng.Intn(len(chans))
			kind := event.ChannelClose
			if closed[i] {
				kind = event.ChannelOpen
			}
			closed[i] = !closed[i]
			events = append(events, event.Event{Time: t, Kind: kind, A: chans[i].A, B: chans[i].B})
		}
	}
	if w.RebalanceRate > 0 {
		for t := rng.ExpFloat64() / w.RebalanceRate; t < horizon; t += rng.ExpFloat64() / w.RebalanceRate {
			e := chans[rng.Intn(len(chans))]
			events = append(events, event.Event{Time: t, Kind: event.Rebalance, A: e.A, B: e.B})
		}
	}
	if w.DemandShift > 0 {
		events = append(events, event.Event{Time: horizon / 2, Kind: event.DemandShift, Amount: w.DemandShift})
	}
	return events
}

// options are the RunDynamic options of one run; sink replaces the
// workload's own flow sink (the traced run wraps it).
func (in *instance) options(sink telemetry.Sink) sim.DynamicOptions {
	return sim.DynamicOptions{
		Workers:  1,
		Seed:     in.seed,
		Service:  in.w.Service,
		Deadline: in.w.Deadline,
		Control:  in.policy,
		FlowSink: sink,
		Registry: in.registry,
	}
}
