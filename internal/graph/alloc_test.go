package graph

import (
	"math/rand"
	"testing"

	"repro/internal/topo"
)

// allocGraph builds a deterministic random graph big enough that the
// scratch buffers see realistic frontier sizes.
func allocGraph(t *testing.T) *topo.Graph {
	t.Helper()
	const n = 400
	rng := rand.New(rand.NewSource(9))
	g := topo.New(n)
	for i := topo.NodeID(1); i < n; i++ {
		g.MustAddChannel(i, topo.NodeID(rng.Intn(int(i))))
	}
	for i := 0; i < 3*n; i++ {
		a, b := topo.NodeID(rng.Intn(n)), topo.NodeID(rng.Intn(n))
		if a != b {
			g.AddChannel(a, b)
		}
	}
	g.Compact()
	return g
}

// TestScratchShortestPathZeroAlloc pins the steady-state allocation
// count of a route lookup on a warm Scratch at zero: the CSR adjacency
// view, the epoch-stamped visited marks and the reusable queue/path
// buffers must make repeated searches allocation-free. A regression
// here reintroduces per-payment garbage on the simulator's hottest
// loop, so the guard is exact.
func TestScratchShortestPathZeroAlloc(t *testing.T) {
	g := allocGraph(t)
	sc := NewScratch()
	if p := sc.ShortestPath(g, 0, 399, nil); p == nil { // warm buffers
		t.Fatal("no path in alloc fixture")
	}
	avg := testing.AllocsPerRun(200, func() {
		if sc.ShortestPath(g, 0, 399, nil) == nil {
			t.Fatal("no path")
		}
	})
	if avg != 0 {
		t.Fatalf("Scratch.ShortestPath allocates %v/op in steady state, want 0", avg)
	}

	// The predicate variants share the buffers and must stay at zero
	// too (the closure itself is hoisted out of the measured loop).
	usable := func(u, v topo.NodeID) bool { return true }
	cu := func(u, v topo.NodeID, ch int32) bool { return true }
	sc.ShortestPath(g, 0, 399, usable)
	if avg := testing.AllocsPerRun(200, func() { sc.ShortestPath(g, 0, 399, usable) }); avg != 0 {
		t.Fatalf("Scratch.ShortestPath(usable) allocates %v/op, want 0", avg)
	}
	sc.ShortestPathCh(g, 0, 399, cu)
	if avg := testing.AllocsPerRun(200, func() { sc.ShortestPathCh(g, 0, 399, cu) }); avg != 0 {
		t.Fatalf("Scratch.ShortestPathCh allocates %v/op, want 0", avg)
	}

	// A predicate bound at the call site — a method value, as the
	// elephant router passes its probed-state filter — must not escape
	// through the search onto the heap.
	f := &allowAll{}
	if avg := testing.AllocsPerRun(200, func() { sc.ShortestPathCh(g, 0, 399, f.usableCh) }); avg != 0 {
		t.Fatalf("Scratch.ShortestPathCh(method value) allocates %v/op, want 0", avg)
	}
}

// allowAll is a channel filter with state, standing in for a router's
// probed-residual predicate.
type allowAll struct{ calls int }

func (a *allowAll) usableCh(u, v topo.NodeID, ch int32) bool {
	a.calls++
	return true
}

// TestScratchBannedSearchZeroAlloc pins the Yen spur primitive — a
// banned search plus its ban-set setup — at zero steady-state
// allocations per spur.
func TestScratchBannedSearchZeroAlloc(t *testing.T) {
	g := allocGraph(t)
	sc := NewScratch()
	base := appendCopy(sc.ShortestPath(g, 0, 399, nil))
	if base == nil {
		t.Fatal("no path in alloc fixture")
	}
	spur := func() {
		sc.ensureBans(g)
		for i := 0; i+1 < len(base); i++ {
			sc.banEdge(g.ChannelIndex(base[i], base[i+1]), base[i], base[i+1])
		}
		sc.search(g, 0, 399, nil, nil, true)
	}
	spur() // warm ban arrays
	if avg := testing.AllocsPerRun(200, spur); avg != 0 {
		t.Fatalf("banned spur search allocates %v/op in steady state, want 0", avg)
	}
}
