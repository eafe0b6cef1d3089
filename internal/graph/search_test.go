package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/topo"
)

// randomGraph builds an n-node graph with roughly m random channels. With
// parts > 1 every channel stays inside one of parts node groups, so the
// graph is fragmented and many pairs are unreachable.
func randomGraph(rng *rand.Rand, n, m, parts int) *topo.Graph {
	g := topo.New(n)
	for i := 0; i < m; i++ {
		a := rng.Intn(n)
		b := rng.Intn(n)
		if parts > 1 {
			b = b - b%parts + a%parts
			if b >= n {
				b -= parts
			}
		}
		if a != b {
			g.AddChannel(topo.NodeID(a), topo.NodeID(b))
		}
	}
	g.Compact()
	return g
}

// hopHash is a deterministic pseudo-random function of a directed hop,
// used to build predicates and ban sets both searches see identically.
func hopHash(seed, u, v uint64) uint64 {
	h := seed*0x9E3779B97F4A7C15 ^ u*0xBF58476D1CE4E5B9 ^ v*0x94D049BB133111EB
	h ^= h >> 31
	h *= 0xD6E8FEB86659FD93
	return h ^ h>>29
}

// searchMode is one of the four ways a graph is searched: no filter, a
// node-pair predicate, a channel predicate, and Yen-style node and edge
// bans.
type searchMode int

const (
	modePlain searchMode = iota
	modeUsable
	modeChUsable
	modeBanned
	numModes
)

func (m searchMode) String() string {
	return [...]string{"plain", "usable", "chusable", "banned"}[m]
}

// compareSearch runs sc.search and the reference BFS on the same query
// under mode, with filters drawn from seed and roughly one hop in drop
// rejected, and reports any difference.
func compareSearch(g *topo.Graph, sc *Scratch, s, t topo.NodeID, mode searchMode, seed uint64, drop uint64) error {
	var (
		usable Usable
		cu     ChUsable
		bans   *refBans
	)
	switch mode {
	case modeUsable:
		usable = func(u, v topo.NodeID) bool { return hopHash(seed, uint64(u), uint64(v))%drop != 0 }
	case modeChUsable:
		cu = func(u, v topo.NodeID, ch int32) bool {
			d := uint64(0)
			if u > v {
				d = 1
			}
			return hopHash(seed, uint64(ch), d)%drop != 0
		}
	case modeBanned:
		sc.ensureBans(g)
		bans = &refBans{node: make([]bool, g.NumNodes()), edge: make([]bool, 2*g.NumChannels())}
		for v := 0; v < g.NumNodes(); v++ {
			if hopHash(seed, uint64(v), 1<<40)%(2*drop) == 0 {
				sc.banNode(topo.NodeID(v))
				bans.node[v] = true
			}
		}
		bans.node[s] = false // the search never applies a ban on its source
		for i, e := range g.Channels() {
			if hopHash(seed, uint64(e.A), uint64(e.B))%drop == 0 {
				sc.banEdge(i, e.A, e.B)
				bans.edge[2*i] = true
			}
			if hopHash(seed, uint64(e.B), uint64(e.A))%drop == 0 {
				sc.banEdge(i, e.B, e.A)
				bans.edge[2*i+1] = true
			}
		}
	}
	want := refSearch(g, s, t, usable, cu, bans)
	got := sc.search(g, s, t, usable, cu, mode == modeBanned)
	if !pathEq(got, want) || (got == nil) != (want == nil) {
		return fmt.Errorf("%v search %d→%d: got %v, want %v", mode, s, t, got, want)
	}
	return nil
}

// TestSearchMatchesReference pins the bidirectional search to the
// one-sided BFS it replaced, path for path, on random connected and
// fragmented graphs, dense and sparse, under all four search modes.
func TestSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sc := NewScratch()
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(80)
		m := rng.Intn(4 * n)
		parts := 1
		if trial%3 == 0 {
			parts = 2 + rng.Intn(3)
		}
		g := randomGraph(rng, n, m, parts)
		for q := 0; q < 20; q++ {
			s, tt := topo.NodeID(rng.Intn(n)), topo.NodeID(rng.Intn(n))
			for mode := searchMode(0); mode < numModes; mode++ {
				drop := uint64(2 + rng.Intn(6))
				if err := compareSearch(g, sc, s, tt, mode, rng.Uint64(), drop); err != nil {
					t.Fatalf("trial %d (n=%d m=%d parts=%d): %v", trial, n, m, parts, err)
				}
			}
		}
	}

	// Long thin graphs push the memoised check thousands of levels deep
	// inside the forward ball.
	for _, g := range []*topo.Graph{topo.Line(3000), topo.Ring(3001)} {
		for q := 0; q < 10; q++ {
			s, tt := topo.NodeID(rng.Intn(g.NumNodes())), topo.NodeID(rng.Intn(g.NumNodes()))
			for mode := searchMode(0); mode < numModes; mode++ {
				if err := compareSearch(g, sc, s, tt, mode, rng.Uint64(), 50); err != nil {
					t.Fatalf("%d-node line/ring: %v", g.NumNodes(), err)
				}
			}
		}
	}

	// Scale-free graphs put hubs on most shortest paths, where ties
	// between equal-length paths are densest.
	for trial := 0; trial < 6; trial++ {
		g, err := topo.BarabasiAlbert(300+rng.Intn(300), 1+rng.Intn(3), rng)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 50; q++ {
			s, tt := topo.NodeID(rng.Intn(g.NumNodes())), topo.NodeID(rng.Intn(g.NumNodes()))
			for mode := searchMode(0); mode < numModes; mode++ {
				if err := compareSearch(g, sc, s, tt, mode, rng.Uint64(), uint64(3+rng.Intn(8))); err != nil {
					t.Fatalf("BA trial %d: %v", trial, err)
				}
			}
		}
	}
}

// TestSearchEdgeCases covers the fixed points of the contract: s == t
// (even when s is banned), an unreachable t, a banned t, and a banned
// source, which the search still leaves from.
func TestSearchEdgeCases(t *testing.T) {
	g := topo.New(5)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(1, 2)
	g.MustAddChannel(3, 4)
	sc := NewScratch()
	if p := sc.search(g, 2, 2, nil, nil, false); !pathEq(p, []topo.NodeID{2}) {
		t.Errorf("s == t: %v", p)
	}
	if p := sc.search(g, 0, 4, nil, nil, false); p != nil {
		t.Errorf("unreachable t: %v", p)
	}
	sc.ensureBans(g)
	sc.banNode(2)
	if p := sc.search(g, 0, 2, nil, nil, true); p != nil {
		t.Errorf("banned t: %v", p)
	}
	if p := sc.search(g, 2, 2, nil, nil, true); !pathEq(p, []topo.NodeID{2}) {
		t.Errorf("banned s == t: %v", p)
	}
	if p := sc.search(g, 2, 0, nil, nil, true); !pathEq(p, []topo.NodeID{2, 1, 0}) {
		t.Errorf("banned source: %v", p)
	}
}

// TestSearchEpochWrap runs well over 256 searches on one Scratch, so the
// uint8 visit epoch (which stamps the forward and backward marks) and
// the ban epoch both wrap, and checks every result against the
// reference BFS.
func TestSearchEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := topo.BarabasiAlbert(120, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	var wraps, banWraps int
	for i := 0; i < 1200; i++ {
		epoch, banEpoch := sc.epoch, sc.banEpoch
		s, tt := topo.NodeID(rng.Intn(120)), topo.NodeID(rng.Intn(120))
		mode := searchMode(i % int(numModes))
		if err := compareSearch(g, sc, s, tt, mode, uint64(i), 4); err != nil {
			t.Fatalf("search %d (epoch %d, ban epoch %d): %v", i, sc.epoch, sc.banEpoch, err)
		}
		if sc.epoch < epoch {
			wraps++
		}
		if sc.banEpoch < banEpoch {
			banWraps++
		}
	}
	if wraps == 0 || banWraps == 0 {
		t.Fatalf("epochs did not wrap: %d visit wraps, %d ban wraps", wraps, banWraps)
	}
}

// FuzzSearchMatchesReference drives the differential property with
// fuzzer-chosen graphs, endpoints, filters and ban sets.
func FuzzSearchMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(40), uint8(1), uint8(0), uint8(5), uint8(0), uint8(3))
	f.Add(int64(7), uint8(60), uint8(200), uint8(3), uint8(2), uint8(9), uint8(3), uint8(2))
	f.Add(int64(42), uint8(2), uint8(1), uint8(1), uint8(0), uint8(1), uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, n, m, parts, s, tt, mode, drop uint8) {
		nodes := 2 + int(n)%120
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, nodes, int(m)*2, 1+int(parts)%4)
		src, dst := topo.NodeID(int(s)%nodes), topo.NodeID(int(tt)%nodes)
		sm := searchMode(int(mode) % int(numModes))
		if err := compareSearch(g, NewScratch(), src, dst, sm, uint64(seed), 2+uint64(drop)%8); err != nil {
			t.Fatal(err)
		}
	})
}
