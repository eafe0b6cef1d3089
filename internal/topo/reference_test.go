package topo

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
)

// The builders below construct each graph incrementally: one
// AddChannel per channel, in the generator's channel order, with staged
// compaction. They are the oracles the fromEdges-based generators must
// reproduce slab for slab, and refCSR is the plain construction every
// CSR must equal.

// refBarabasiAlbert is BarabasiAlbert as an AddChannel loop with a
// per-node chosen set; it makes the same rng draws.
func refBarabasiAlbert(n, m int, rng *rand.Rand) *Graph {
	g := New(n)
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			g.MustAddChannel(NodeID(i), NodeID(j))
		}
	}
	var targets []NodeID
	for _, e := range g.Channels() {
		targets = append(targets, e.A, e.B)
	}
	for v := m + 1; v < n; v++ {
		chosen := make(map[NodeID]bool, m)
		picked := make([]NodeID, 0, m)
		for len(chosen) < m {
			cand := targets[rng.Intn(len(targets))]
			if cand != NodeID(v) && !chosen[cand] {
				chosen[cand] = true
				picked = append(picked, cand)
			}
		}
		for _, u := range picked {
			g.MustAddChannel(NodeID(v), u)
			targets = append(targets, NodeID(v), u)
		}
	}
	g.Compact()
	return g
}

func refRing(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.MustAddChannel(NodeID(i), NodeID((i+1)%n))
	}
	g.Compact()
	return g
}

func refLine(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddChannel(NodeID(i), NodeID(i+1))
	}
	g.Compact()
	return g
}

func refComplete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.MustAddChannel(NodeID(i), NodeID(j))
		}
	}
	g.Compact()
	return g
}

func refSubgraph(g *Graph, keep []NodeID) (*Graph, []NodeID) {
	remap := make([]NodeID, g.NumNodes())
	for i := range remap {
		remap[i] = -1
	}
	for newID, old := range keep {
		remap[old] = NodeID(newID)
	}
	sub := New(len(keep))
	for _, e := range g.edges {
		a, b := remap[e.A], remap[e.B]
		if a >= 0 && b >= 0 {
			sub.MustAddChannel(a, b)
		}
	}
	sub.Compact()
	return sub, remap
}

// refBuild adds edges one by one with AddChannel. A channel that is
// already present, in either orientation, is an error here, as it is
// for fromEdges.
func refBuild(n int, edges []Edge) (*Graph, error) {
	g := New(n)
	for i, e := range edges {
		idx, err := g.AddChannel(e.A, e.B)
		if err != nil {
			return nil, err
		}
		if idx != i {
			return nil, fmt.Errorf("duplicate channel %d-%d (channels %d and %d)", e.A, e.B, idx, i)
		}
	}
	g.Compact()
	return g, nil
}

// refCSR builds the CSR slabs the plain way: each node's incident
// channels appended in index order, then a sorted copy of each run.
func refCSR(n int, edges []Edge) *csr {
	type half struct {
		nbr NodeID
		ch  int32
	}
	adj := make([][]half, n)
	for i, e := range edges {
		adj[e.A] = append(adj[e.A], half{e.B, int32(i)})
		adj[e.B] = append(adj[e.B], half{e.A, int32(i)})
	}
	c := &csr{off: make([]int32, n+1)}
	for u, run := range adj {
		c.off[u+1] = c.off[u] + int32(len(run))
		for _, h := range run {
			c.arena, c.arenaCh = append(c.arena, h.nbr), append(c.arenaCh, h.ch)
		}
		sort.Slice(run, func(i, j int) bool { return run[i].nbr < run[j].nbr })
		for _, h := range run {
			c.sorted, c.sortCh = append(c.sorted, h.nbr), append(c.sortCh, h.ch)
		}
	}
	return c
}

// sameGraph reports the first difference between two graphs: node and
// channel counts, the channel list, the compaction state, or any of the
// five CSR slabs of either graph against refCSR of the channel list.
// Both graphs are compacted first.
func sameGraph(got, want *Graph) error {
	got.Compact()
	want.Compact()
	if got.NumNodes() != want.NumNodes() {
		return fmt.Errorf("NumNodes = %d, want %d", got.NumNodes(), want.NumNodes())
	}
	if !slices.Equal(got.Channels(), want.Channels()) {
		return fmt.Errorf("Channels differ:\n got %v\nwant %v", got.Channels(), want.Channels())
	}
	ref := refCSR(want.NumNodes(), want.Channels())
	for _, side := range []struct {
		name string
		g    *Graph
	}{{"got", got}, {"want", want}} {
		if side.g.baseEdge != len(ref.arena)/2 || side.g.pendN.Load() != 0 {
			return fmt.Errorf("%s compaction state: baseEdge %d, pending %d", side.name, side.g.baseEdge, side.g.pendN.Load())
		}
		c := side.g.base.Load()
		if !slices.Equal(c.off, ref.off) || !slices.Equal(c.arena, ref.arena) || !slices.Equal(c.arenaCh, ref.arenaCh) ||
			!slices.Equal(c.sorted, ref.sorted) || !slices.Equal(c.sortCh, ref.sortCh) {
			return fmt.Errorf("%s CSR differs from the reference:\n got %+v\nwant %+v", side.name, *c, *ref)
		}
	}
	return nil
}
