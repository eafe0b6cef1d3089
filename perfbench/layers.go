package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/control"
	"repro/internal/event"
	"repro/internal/stats"
)

// perLayer lists the per-layer metrics in output order, with units.
var perLayer = []struct{ name, unit string }{
	{"trace.next_ns_per_payment", "ns"},
	{"trace.busy_share", "ratio"},
	{"telemetry.emit_ns_per_payment", "ns"},
	{"telemetry.busy_share", "ratio"},
	{"sim.self_share", "ratio"},
	{"sim.self_ns_per_event", "ns"},
	{"sim.cpu_per_wall", "ratio"},
	{"sim.deadline_expiries", "count"},
	{"sim.span_aborts", "count"},
	{"event.events_per_payment", "count"},
	{"event.count.arrival", "count"},
	{"event.count.complete", "count"},
	{"event.count.open", "count"},
	{"event.count.close", "count"},
	{"event.count.rebalance", "count"},
	{"event.count.demand-shift", "count"},
	{"event.count.fee-shift", "count"},
	{"event.count.threshold-update", "count"},
	{"event.count.deadline-expiry", "count"},
	{"event.count.control-update", "count"},
	{"route.busy_share", "ratio"},
	{"route.mouse_busy_share", "ratio"},
	{"route.elephant_busy_share", "ratio"},
	{"route.mouse_p50_us", "us"},
	{"route.mouse_tail_us", "us"},
	{"route.mouse_tail_pct", "pct"},
	{"route.mouse_n", "count"},
	{"route.elephant_p50_us", "us"},
	{"route.elephant_tail_us", "us"},
	{"route.elephant_tail_pct", "pct"},
	{"route.elephant_n", "count"},
	{"core.elephant_share", "ratio"},
	{"core.table_hit_ratio", "ratio"},
	{"core.table_evictions_per_payment", "count"},
	{"core.table_invalidations", "count"},
	{"core.paths_replaced_per_mouse", "count"},
	{"core.mouse_self_us", "us"},
	{"core.elephant_self_us", "us"},
	{"control.decisions", "count"},
	{"control.decisions.threshold", "count"},
	{"control.decisions.sender-threshold", "count"},
	{"control.decisions.probe-width", "count"},
	{"control.decisions.retry-backoff", "count"},
	{"pcn.probe_ops_per_payment", "count"},
	{"pcn.probe_msgs_per_payment", "count"},
	{"pcn.commit_msgs_per_payment", "count"},
	{"pcn.hold_commit_ratio", "ratio"},
	{"pcn.probe_ns", "ns"},
	{"pcn.hold_ns", "ns"},
	{"pcn.finish_ns", "ns"},
	{"graph.bfs_us", "us"},
	{"graph.yen_us", "us"},
	{"graph.maxflow_us", "us"},
	{"lp.solve_us", "us"},
	{"setup.topology_s", "s"},
	{"setup.calibrate_s", "s"},
	{"setup.router_s", "s"},
	{"traced_overhead_share", "ratio"},
}

// measureLayers runs every instance of w untraced and traced in
// alternation until the budget is spent, checks that the traced runs
// reproduce the untraced fingerprints and deterministic metrics, and
// reports the per-layer metrics of the traced runs and of a layer
// replay of the first instance's payments.
func measureLayers(w workload, seed int64, budget time.Duration, log io.Writer) (result, error) {
	res := result{Metrics: map[string]metric{}}
	seeds := instanceSeeds(seed, w.Instances)
	plain, traced := newTally(w.Instances), newTally(w.Instances)
	err := rounds(w, 1, budget, func(round, i int) error {
		for _, tr := range []bool{false, true} {
			res.Attempted++
			s, err := runOnce(w, seeds[i], tr)
			if err == nil && tr {
				// The traced run must reproduce the untraced one.
				err = checkSame(plain.refs[i], s.out, "traced run")
			}
			if err == nil {
				t := plain
				if tr {
					t = traced
				}
				err = t.add(i, s, "repeat run")
			}
			if err != nil {
				res.Failed++
				return err
			}
			fmt.Fprintf(log, "# round %d instance %d traced=%v: wall=%.3fs payments=%d fingerprint=%016x\n",
				round+1, i, tr, s.wall.Seconds(), s.out.Payments, s.out.Fingerprint)
		}
		return nil
	})
	if err != nil {
		return res, err
	}

	ms := res.Metrics
	set := func(name string, v float64) {
		for _, l := range perLayer {
			if l.name == name {
				ms[name] = metric{v, l.unit}
				return
			}
		}
		panic("perfbench: unlisted per-layer metric " + name)
	}
	tracedMetrics(traced, set)
	plainWall := plain.sumMedian(func(s sample) float64 { return s.wall.Seconds() })
	tracedWall := traced.sumMedian(func(s sample) float64 { return s.wall.Seconds() })
	set("traced_overhead_share", tracedWall/plainWall-1)

	setupMedian := func(f func(sample) time.Duration) float64 {
		vs := append(plain.all(func(s sample) float64 { return f(s).Seconds() }),
			traced.all(func(s sample) float64 { return f(s).Seconds() })...)
		return stats.Median(vs)
	}
	set("setup.topology_s", setupMedian(func(s sample) time.Duration { return s.topology }))
	set("setup.calibrate_s", setupMedian(func(s sample) time.Duration { return s.calibrate }))
	set("setup.router_s", setupMedian(func(s sample) time.Duration { return s.router }))

	first := traced.samples[0][0]
	rep, err := replay(w, seeds[0], first.recorded)
	if err != nil {
		res.Failed++
		return res, fmt.Errorf("layer replay: %w", err)
	}
	rep.report(set)

	for _, l := range perLayer {
		m := ms[l.name]
		fmt.Fprintf(log, "%-36s %16.6g %s\n", l.name, m.Value, m.Unit)
	}
	fmt.Fprintf(log, "# dominant layer: %s\n", dominant(ms))
	fmt.Fprintf(log, "# %d traced and %d untraced runs of %d instances; replay of %d payments\n",
		traced.runs(), plain.runs(), w.Instances, len(first.recorded))
	res.Correct = true
	return res, nil
}

// tracedMetrics reports the per-layer metrics of the traced runs:
// times from the medians of each instance's traced runs, counts from
// each instance's deterministic first run, both summed over instances.
func tracedMetrics(t *tally, set func(string, float64)) {
	payments := float64(t.payments())
	wall := t.sumMedian(func(s sample) float64 { return float64(s.wall) })
	next := t.sumMedian(func(s sample) float64 { return float64(s.nextTime) })
	chain := t.sumMedian(func(s sample) float64 { return float64(s.sink.chainTime) })
	inner := t.sumMedian(func(s sample) float64 { return float64(s.sink.innerTime) })
	routeNS := t.sumMedian(func(s sample) float64 { return float64(s.sink.routeTime) })
	self := t.sumMedian(func(s sample) float64 {
		return float64(s.wall - s.nextTime - s.sink.chainTime - s.sink.routeTime)
	})

	var (
		events, expiries, aborts, decisions float64
		counts                              [event.NumKinds]float64
		knobs                               = map[string]float64{}
		mouseNS, elephNS                    []float64
		probeOps, probeMsgs, commitMsgs     float64
		placed, committed                   float64
		elephants, mice, hits, misses       float64
		evictions, invalidations, replaced  float64
	)
	for _, ss := range t.samples {
		for _, s := range ss {
			mouseNS = append(mouseNS, s.sink.mouseNS...)
			elephNS = append(elephNS, s.sink.elephNS...)
		}
		s := ss[0]
		for k, c := range s.res.EventCounts {
			counts[k] += float64(c)
			events += float64(c)
		}
		expiries += float64(s.res.DeadlineExpiries)
		aborts += float64(s.res.SpanAborts)
		decisions += float64(s.res.ControlDecisions)
		for _, k := range s.res.Controllers {
			knobs[k.Knob] += float64(k.Decisions)
		}
		probeOps += float64(s.sink.probeOps)
		probeMsgs += float64(s.res.Aggregate.ProbeMessages)
		commitMsgs += float64(s.res.Aggregate.CommitMessages)
		placed += float64(s.holdsPlaced)
		committed += float64(s.holdsDone)
		if s.isFlash {
			st := s.flashStats
			elephants += float64(st.Elephants)
			mice += float64(st.Mice)
			hits += float64(st.TableHits)
			misses += float64(st.TableMisses)
			evictions += float64(st.TableEvictions)
			invalidations += float64(st.TableInvalidations)
			replaced += float64(st.PathsReplaced)
		}
	}

	set("trace.next_ns_per_payment", next/payments)
	set("trace.busy_share", next/wall)
	set("telemetry.emit_ns_per_payment", chain/payments)
	set("telemetry.busy_share", inner/wall)
	set("sim.self_share", self/wall)
	set("sim.self_ns_per_event", self/events)
	set("sim.cpu_per_wall", t.sumMedian(func(s sample) float64 { return float64(s.cpu) })/wall)
	set("sim.deadline_expiries", expiries)
	set("sim.span_aborts", aborts)
	set("event.events_per_payment", events/payments)
	for k := range counts {
		set("event.count."+event.Kind(k).String(), counts[k])
	}
	set("route.busy_share", routeNS/wall)
	set("route.mouse_busy_share", t.sumMedian(func(s sample) float64 { return sum(s.sink.mouseNS) })/wall)
	set("route.elephant_busy_share", t.sumMedian(func(s sample) float64 { return sum(s.sink.elephNS) })/wall)
	for class, ns := range map[string][]float64{"mouse": mouseNS, "elephant": elephNS} {
		pct, v := tail(ns)
		set("route."+class+"_p50_us", stats.Median(ns)/1e3)
		set("route."+class+"_tail_us", v/1e3)
		set("route."+class+"_tail_pct", pct)
		set("route."+class+"_n", float64(len(ns)))
	}
	set("core.elephant_share", ratio(elephants, elephants+mice))
	set("core.table_hit_ratio", ratio(hits, hits+misses))
	set("core.table_evictions_per_payment", evictions/payments)
	set("core.table_invalidations", invalidations)
	set("core.paths_replaced_per_mouse", ratio(replaced, mice))
	set("control.decisions", decisions)
	for k := control.Knob(1); int(k) < control.NumKnobs; k++ {
		set("control.decisions."+k.String(), knobs[k.String()])
	}
	set("pcn.probe_ops_per_payment", probeOps/payments)
	set("pcn.probe_msgs_per_payment", probeMsgs/payments)
	set("pcn.commit_msgs_per_payment", commitMsgs/payments)
	set("pcn.hold_commit_ratio", ratio(committed, placed))
}

// sum adds vs up.
func sum(vs []float64) float64 {
	total := 0.0
	for _, v := range vs {
		total += v
	}
	return total
}

// dominant names the layer with the largest share of the traced runs'
// wall time.
func dominant(ms map[string]metric) string {
	best, share := "", -1.0
	for _, name := range []string{"trace.busy_share", "telemetry.busy_share", "sim.self_share", "route.mouse_busy_share", "route.elephant_busy_share"} {
		if v := ms[name].Value; v > share {
			best, share = name, v
		}
	}
	return fmt.Sprintf("%s (%.1f%% of wall time)", best, 100*share)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
