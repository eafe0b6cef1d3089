// Command flashsim replays a synthetic payment workload over a
// generated offchain network topology and compares routing schemes,
// reporting the paper's metrics (success ratio, success volume, probing
// messages, fee ratio).
//
// Static mode (the default) replays a fixed payment list, reproducing
// the paper's simulation setup. Dynamic mode (-dynamic, or -scenario
// with a catalogue name) runs the discrete-event engine instead:
// payments arrive through a seeded arrival process over a virtual
// clock, churn events open/close/rebalance channels mid-run, and the
// output includes a per-window time series. Dynamic runs with
// -workers 1 (the default) are fully deterministic: the same seed
// prints the same bytes, fingerprint included — with or without hold
// spans.
//
// -service enables hold spans: each payment locks its funds for an
// exponential virtual service time between the routing decision and
// the commit, so concurrent arrivals contend for channel balance
// deterministically (see ARCHITECTURE.md). -service 0 (the default)
// keeps the historical atomic-at-dispatch behaviour.
//
// Examples:
//
//	flashsim -kind ripple -nodes 1870 -txns 2000 -scale 10
//	flashsim -kind lightning -nodes 2511 -txns 2000 -scale 20 -schemes Flash,Spider
//	flashsim -kind testbed -nodes 50 -txns 1000 -caplo 1000 -caphi 1500
//	flashsim -workers 8 -retries 3                    # concurrent replay with retry recovery
//	flashsim -dynamic -arrival poisson -rate 20 -duration 60
//	flashsim -scenario churn -nodes 200 -seed 42      # catalogue churn scenario
//	flashsim -scenario flash-crowd -duration 120 -window 10
//	flashsim -scenario contention -retries 2          # hold-span contention on the barbell
//	flashsim -scenario hub-failure -seed 7            # top-degree node fails mid-run
//	flashsim -scenario latency-slo -probeworkers 4    # virtual RTTs + HTLC deadlines, piped probes
//	flashsim -scenario griefing -deadline 0           # deadline-exhaustion attack, expiry disabled
//	flashsim -dynamic -latency 0.05 -service 1 -deadline 5   # custom latency model
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"

	"repro/internal/control"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	var (
		kind     = flag.String("kind", sim.KindRipple, "topology kind: ripple, lightning or testbed")
		topology = flag.String("topology", "", "snapshot file (LN graph JSON or capacity edge list) replacing the generated -kind topology")
		nodes    = flag.Int("nodes", 1870, "number of nodes")
		txns     = flag.Int("txns", 2000, "number of transactions (static mode)")
		scale    = flag.Float64("scale", 10, "capacity scale factor")
		mice     = flag.Float64("mice", 0.9, "fraction of payments classified as mice")
		schemes  = flag.String("schemes", strings.Join(sim.PaperSchemes, ","), "comma-separated scheme list")
		runs     = flag.Int("runs", 5, "independent runs to average (static mode)")
		seed     = flag.Int64("seed", 1, "base random seed")
		flashK   = flag.Int("k", 0, "Flash elephant path budget (0 = paper default 20)")
		flashM   = flag.Int("m", -1, "Flash mice paths per receiver (-1 = paper default 4; 0 routes mice as elephants)")
		capLo    = flag.Float64("caplo", 1000, "testbed capacity range low")
		capHi    = flag.Float64("caphi", 1500, "testbed capacity range high")
		workers  = flag.Int("workers", 1, "concurrent payment workers per scheme replay (1 = sequential/deterministic, 0 = GOMAXPROCS)")
		parallel = flag.Bool("parallelschemes", false, "run the schemes of each repetition concurrently on identically-seeded networks")
		retries  = flag.Int("retries", 0, "re-route failed payments up to N extra times with jittered backoff")
		probeW   = flag.Int("probeworkers", 1, "Flash per-session probe pool: probe N speculative elephant candidate paths concurrently (1 = sequential Algorithm 1)")
		tableCap = flag.Int("tablecap", 0, "bound each sender's mice routing table to N receiver entries, LRU-evicted (0 = unbounded)")

		dynamic   = flag.Bool("dynamic", false, "discrete-event dynamic mode: virtual time, arrival process, churn")
		scenario  = flag.String("scenario", "", "dynamic scenario preset: "+strings.Join(sim.DynamicScenarioNames, ", "))
		arrival   = flag.String("arrival", sim.ArrivalPoisson, "arrival process: poisson, flash-crowd or diurnal")
		rate      = flag.Float64("rate", 20, "mean payment arrivals per virtual second")
		duration  = flag.Float64("duration", 60, "virtual seconds to simulate")
		window    = flag.Float64("window", 0, "time-series window in virtual seconds (0 = duration/10)")
		churn     = flag.Float64("churn", 0, "channel open/close events per virtual second")
		rebalance = flag.Float64("rebalance", 0, "channel rebalance events per virtual second")
		latent    = flag.Int("latent", 0, "latent channels that may open mid-run")
		peak      = flag.Float64("peak", 0, "flash-crowd rate multiplier / diurnal swing (0 = per-process default)")
		service   = flag.Float64("service", 0, "mean virtual service time per payment in seconds; > 0 enables hold spans (funds stay locked until the commit event)")
		thrWindow = flag.Float64("thresholdwindow", 0, "control-plane cadence in virtual seconds: how often controllers observe and re-tune (0 = time-series window)")
		ctrl      = flag.String("control", "", "adaptive control plane policies, comma-separated: raw|ewma (global threshold), sender (per-sender thresholds), width (probe width); off/empty = none (dynamic mode)")
		latency   = flag.Float64("latency", 0, "median per-channel virtual RTT in seconds, log-normally distributed (0 = latency-free, byte-identical to the pre-latency engine)")
		latSigma  = flag.Float64("latencysigma", 0, "log-normal shape of the per-channel RTT distribution (0 = default 0.6)")
		deadline  = flag.Float64("deadline", 0, "HTLC-style hold-span expiry in virtual seconds: suspended payments whose commit cannot settle in time abort at the deadline (0 = no expiry)")
		griefFrac = flag.Float64("grieffrac", 0, "fraction of payments marked as griefers that pin their routes (dynamic mode, requires -service)")
		griefHold = flag.Float64("griefhold", 0, "virtual seconds a griefer holds its route instead of the drawn service time")

		flows    = flag.String("flows", "", "write one JSON flow record per completed payment to this file (observer-only; '-' = stdout)")
		jsonMode = flag.Bool("json", false, "print dynamic results as machine-readable JSON instead of the table (dynamic mode only)")
	)
	flag.Parse()

	if *topology != "" {
		*kind = sim.KindSnapshotPrefix + *topology
	}

	conc := *workers
	if conc == 0 {
		conc = runtime.GOMAXPROCS(0)
	}

	sink, closeSink := openFlowSink(*flows)
	defer closeSink()

	if *dynamic || *scenario != "" {
		runDynamic(*scenario, *kind, *nodes, *scale, *mice, splitList(*schemes), *seed, conc, *retries,
			*arrival, *rate, *duration, *window, *churn, *rebalance, *latent, *peak, *service,
			*flashK, *flashM, *probeW, *tableCap, *thrWindow, *ctrl,
			*latency, *latSigma, *deadline, *griefFrac, *griefHold, sink, *jsonMode)
		return
	}
	if *jsonMode {
		fmt.Fprintln(os.Stderr, "flashsim: -json requires dynamic mode (-dynamic or -scenario)")
		os.Exit(2)
	}

	sc := sim.Scenario{
		Kind:            *kind,
		Nodes:           *nodes,
		Txns:            *txns,
		ScaleFactor:     *scale,
		MiceFraction:    *mice,
		Schemes:         splitList(*schemes),
		Runs:            *runs,
		Seed:            *seed,
		FlashK:          *flashK,
		TestbedCapLo:    *capLo,
		TestbedCapHi:    *capHi,
		Concurrency:     conc,
		ParallelSchemes: *parallel,
		Retries:         *retries,
		ProbeWorkers:    *probeW,
		TableCap:        *tableCap,
		FlowSink:        sink,
	}
	if *flashM >= 0 {
		sc.FlashM = *flashM
		sc.FlashMSet = true
	}

	results, err := sim.RunScenario(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flashsim:", err)
		os.Exit(1)
	}

	fmt.Printf("# kind=%s nodes=%d txns=%d scale=%g mice=%.0f%% runs=%d seed=%d workers=%d retries=%d probeworkers=%d\n",
		sc.Kind, sc.Nodes, sc.Txns, sc.ScaleFactor, 100*sc.MiceFraction, sc.Runs, sc.Seed, sc.Concurrency, sc.Retries, sc.ProbeWorkers)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\tsucc.ratio\tsucc.volume\tprobe msgs\tfee ratio\tmean delay")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%.1f%%\t%.4g\t%.0f\t%.3f%%\t%v\n",
			r.Scheme,
			100*r.Mean(sim.Metrics.SuccessRatio),
			r.Mean(func(m sim.Metrics) float64 { return m.SuccessVolume }),
			r.Mean(func(m sim.Metrics) float64 { return float64(m.ProbeMessages) }),
			100*r.Mean(sim.Metrics.FeeRatio),
			r.Runs[0].MeanDelay().Round(1000))
	}
	w.Flush()
}

// openFlowSink opens the -flows destination: a buffered JSONL sink on
// the given path ('-' = stdout), or a nil sink (one branch on the hot
// path) when the flag is unset. The returned close function flushes
// and reports sink errors.
func openFlowSink(path string) (telemetry.Sink, func()) {
	if path == "" {
		return nil, func() {}
	}
	var (
		f   *os.File
		err error
	)
	if path == "-" {
		f = os.Stdout
	} else if f, err = os.Create(path); err != nil {
		fmt.Fprintln(os.Stderr, "flashsim:", err)
		os.Exit(1)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	sink := telemetry.NewJSONLSink(bw)
	return sink, func() {
		ferr := sink.Close() // drain the async writer before flushing
		if berr := bw.Flush(); ferr == nil {
			ferr = berr
		}
		if f != os.Stdout {
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
		}
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "flashsim: writing flows:", ferr)
			os.Exit(1)
		}
	}
}

// runDynamic executes the discrete-event mode and prints the
// per-window time series plus aggregates. All output is derived from
// virtual time and seeded randomness, so identical invocations print
// identical bytes (workers ≤ 1) — telemetry sinks included, which only
// observe. jsonMode switches the report from the table renderer to one
// indented JSON document per scheme.
func runDynamic(scenario, kind string, nodes int, scale, mice float64, schemes []string,
	seed int64, workers, retries int, arrival string, rate, duration, window,
	churn, rebalance float64, latent int, peak, service float64, flashK, flashM, probeWorkers, tableCap int,
	thrWindow float64, controlSpec string, latency, latSigma, deadline, griefFrac, griefHold float64,
	sink telemetry.Sink, jsonMode bool) {

	var (
		sc  sim.DynamicScenario
		err error
	)
	if scenario != "" {
		sc, err = sim.NamedDynamicScenario(scenario, kind, nodes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flashsim:", err)
			os.Exit(2)
		}
	} else {
		sc = sim.DynamicScenario{
			Name:        "custom",
			Kind:        kind,
			Nodes:       nodes,
			ScaleFactor: scale,
			Duration:    duration,
			Arrival:     arrival,
			Rate:        rate,
			ChurnRate:   churn,
			Peak:        peak,
		}
	}
	// Flags the user set explicitly override a preset's defaults.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["arrival"] {
		sc.Arrival = arrival
	}
	if set["rate"] {
		sc.Rate = rate
	}
	if set["duration"] {
		sc.Duration = duration
	}
	if set["churn"] {
		sc.ChurnRate = churn
	}
	if set["rebalance"] {
		sc.RebalanceRate = rebalance
	}
	if set["latent"] {
		sc.LatentChannels = latent
	}
	if set["peak"] {
		sc.Peak = peak
	}
	if set["scale"] {
		sc.ScaleFactor = scale
	}
	if set["service"] || sc.Service == 0 {
		sc.Service = service // a preset's hold-span default survives unless overridden
	}
	if set["control"] {
		policy, perr := control.ParsePolicy(controlSpec)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "flashsim:", perr)
			os.Exit(2)
		}
		if policy.Enabled() {
			sc.Control = &policy
		} else {
			sc.Control = nil // -control off silences a preset's plane too
		}
	}
	if set["thresholdwindow"] && sc.Control != nil {
		policy := *sc.Control
		policy.Window = thrWindow
		sc.Control = &policy
	}
	// The latency/deadline/grief knobs default to 0 (off), so a preset's
	// model survives unless the flag is given explicitly — which allows
	// paired controls like `-scenario griefing -deadline 0`.
	if set["latency"] {
		sc.LatencyMedian = latency
	}
	if set["latencysigma"] {
		sc.LatencySigma = latSigma
	}
	if set["deadline"] {
		sc.Deadline = deadline
	}
	if set["grieffrac"] {
		sc.GriefFrac = griefFrac
	}
	if set["griefhold"] {
		sc.GriefHold = griefHold
	}
	sc.MiceFraction = mice
	sc.Window = window
	sc.Schemes = schemes
	sc.Workers = workers
	sc.Retries = retries
	sc.ProbeWorkers = probeWorkers
	sc.TableCap = tableCap
	sc.Seed = seed
	sc.FlashK = flashK
	if flashM >= 0 {
		sc.FlashM = flashM
		sc.FlashMSet = true
	}
	sc.FlowSink = sink

	results, err := sim.RunDynamicScenario(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flashsim:", err)
		os.Exit(1)
	}

	if jsonMode {
		for _, r := range results {
			if err := sim.WriteDynamicJSON(os.Stdout, r.Scheme, r.Result); err != nil {
				fmt.Fprintln(os.Stderr, "flashsim:", err)
				os.Exit(1)
			}
		}
		return
	}
	fmt.Printf("# dynamic scenario=%s kind=%s nodes=%d scale=%g arrival=%s rate=%g/s duration=%gs service=%gs churn=%g/s rebalance=%g/s latent=%d seed=%d workers=%d retries=%d probeworkers=%d",
		sc.Name, sc.Kind, sc.Nodes, sc.ScaleFactor, sc.Arrival, sc.Rate, sc.Duration, sc.Service,
		sc.ChurnRate, sc.RebalanceRate, sc.LatentChannels, sc.Seed, sc.Workers, sc.Retries, sc.ProbeWorkers)
	// The control-plane header segment appears only when a policy is
	// live, so control-free invocations print the historical bytes.
	if sc.Control != nil && sc.Control.Enabled() {
		fmt.Printf(" control=%s", sc.Control.Spec())
	}
	// The latency-model header segment appears only when the model is
	// live, so latency-free invocations print the historical bytes.
	if sc.LatencyMedian > 0 || sc.Deadline > 0 || sc.GriefFrac > 0 {
		fmt.Printf(" latency=%gs sigma=%g deadline=%gs grief=%g/%gs",
			sc.LatencyMedian, sc.LatencySigma, sc.Deadline, sc.GriefFrac, sc.GriefHold)
	}
	fmt.Println()
	showThr := sc.Control != nil && sc.Control.Enabled()
	for _, r := range results {
		sim.WriteDynamicResult(os.Stdout, r.Scheme, r.Result, showThr)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
