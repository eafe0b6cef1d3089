package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
)

// replayStats holds the per-call durations (nanoseconds) of a layer
// replay.
type replayStats struct {
	mouseSelf, elephantSelf []float64
	probe, hold, finish     []float64
	bfs, yen, maxflow, lpt  []float64
}

// maxReplayElephants bounds the Yen, max-flow and LP calls of one
// replay: on the 10k-node graph each Yen search takes milliseconds.
const maxReplayElephants = 100

// replay routes payments (recorded by the traced run's source) on a
// fresh, identically seeded instance — no churn, no hold spans — and
// times each layer's public functions directly: the router's Route
// through a timing session wrapper (its self time excludes the session
// calls), Scratch.ShortestPath, a Probe, Hold and Abort of that
// shortest path on a second session, and for elephants YenKSP at
// Flash's K, MaxFlow on the live balances, and lp.Solve on the
// fee-allocation program over the max-flow paths.
func replay(w workload, seed int64, payments []trace.Payment) (*replayStats, error) {
	if len(payments) == 0 {
		return nil, fmt.Errorf("no payments recorded")
	}
	in, err := w.assemble(seed)
	if err != nil {
		return nil, err
	}
	net, g := in.net, in.net.Graph()
	k := core.DefaultConfig(0).K
	sc := graph.NewScratch()
	rs := &replayStats{}
	elephants := 0
	for _, p := range payments {
		isElephant := p.Amount > in.threshold
		var before core.Stats
		if in.flash != nil {
			before = in.flash.Stats()
		}
		tx, err := net.Begin(p.Sender, p.Receiver, p.Amount)
		if err != nil {
			return nil, err
		}
		var st sessionTimes
		start := time.Now()
		_ = in.router.Route(&timedSession{tx: tx, times: &st}) // undelivered is an outcome
		routeTime := time.Since(start)
		if !tx.Finished() {
			return nil, fmt.Errorf("router left payment %d unfinished", p.ID)
		}
		if in.flash != nil {
			isElephant = in.flash.Stats().Elephants > before.Elephants
		}
		self := float64(routeTime - st.covered)
		if isElephant {
			rs.elephantSelf = append(rs.elephantSelf, self)
		} else {
			rs.mouseSelf = append(rs.mouseSelf, self)
		}

		start = time.Now()
		path := sc.ShortestPath(g, p.Sender, p.Receiver, nil)
		rs.bfs = append(rs.bfs, float64(time.Since(start)))
		if path != nil {
			if err := rs.session(net, p, path); err != nil {
				return nil, err
			}
		}

		if !isElephant || elephants >= maxReplayElephants {
			continue
		}
		elephants++
		start = time.Now()
		graph.YenKSP(g, p.Sender, p.Receiver, k)
		rs.yen = append(rs.yen, float64(time.Since(start)))

		start = time.Now()
		flow := graph.MaxFlow(g, p.Sender, p.Receiver, net.Available, k, p.Amount)
		rs.maxflow = append(rs.maxflow, float64(time.Since(start)))

		if flow.Value <= 0 {
			continue
		}
		prob := feeProgram(net, flow.Paths, math.Min(p.Amount, flow.Value))
		start = time.Now()
		if _, err := lp.Solve(prob); err != nil {
			return nil, fmt.Errorf("fee program of payment %d: %w", p.ID, err)
		}
		rs.lpt = append(rs.lpt, float64(time.Since(start)))
	}
	return rs, nil
}

// session times the pcn layer's payment protocol on path: a Probe,
// a Hold of what the path can carry, and the Abort that releases it,
// so the network is left as the router's replay left it.
func (rs *replayStats) session(net *pcn.Network, p trace.Payment, path []topo.NodeID) error {
	tx, err := net.Begin(p.Sender, p.Receiver, p.Amount)
	if err != nil {
		return err
	}
	start := time.Now()
	info, err := tx.Probe(path)
	rs.probe = append(rs.probe, float64(time.Since(start)))
	if err != nil {
		return fmt.Errorf("probe of payment %d: %w", p.ID, err)
	}
	if amount := math.Min(p.Amount, route.MinAvailable(info)); amount > route.Epsilon {
		start = time.Now()
		err := tx.Hold(path, amount)
		rs.hold = append(rs.hold, float64(time.Since(start)))
		if err != nil {
			return fmt.Errorf("hold of payment %d: %w", p.ID, err)
		}
	}
	start = time.Now()
	err = tx.Abort()
	rs.finish = append(rs.finish, float64(time.Since(start)))
	return err
}

// feeProgram is Flash's fee-allocation program (1) over the given
// paths with full balance knowledge: minimise the summed proportional
// fee rate of the flow on each path, subject to delivering demand and
// to each directed hop's available balance, with flow on the reverse
// direction of a hop offsetting it.
func feeProgram(net *pcn.Network, paths [][]topo.NodeID, demand float64) lp.Problem {
	n := len(paths)
	prob := lp.Problem{C: make([]float64, n), Aeq: [][]float64{make([]float64, n)}, Beq: []float64{demand}}
	rows := map[graph.DirEdge]int{}
	row := func(e graph.DirEdge) int {
		if r, ok := rows[e]; ok {
			return r
		}
		rows[e] = len(prob.Aub)
		prob.Aub = append(prob.Aub, make([]float64, n))
		prob.Bub = append(prob.Bub, net.Available(e.U, e.V))
		return rows[e]
	}
	for i, p := range paths {
		prob.Aeq[0][i] = 1
		for _, e := range graph.PathEdges(p) {
			prob.C[i] += net.Fee(e.U, e.V).Rate
			prob.Aub[row(e)][i]++
			prob.Aub[row(e.Reverse())][i]--
		}
	}
	return prob
}

// report sets the replay's per-layer metrics: the median of each
// call's duration.
func (rs *replayStats) report(set func(string, float64)) {
	us := func(ns []float64) float64 { return stats.Median(ns) / 1e3 }
	set("core.mouse_self_us", us(rs.mouseSelf))
	set("core.elephant_self_us", us(rs.elephantSelf))
	set("pcn.probe_ns", stats.Median(rs.probe))
	set("pcn.hold_ns", stats.Median(rs.hold))
	set("pcn.finish_ns", stats.Median(rs.finish))
	set("graph.bfs_us", us(rs.bfs))
	set("graph.yen_us", us(rs.yen))
	set("graph.maxflow_us", us(rs.maxflow))
	set("lp.solve_us", us(rs.lpt))
}
