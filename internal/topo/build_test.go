package topo

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestBarabasiAlbertMatchesIncremental(t *testing.T) {
	for _, n := range []int{12, 200, 2000} {
		for _, m := range []int{1, 5, 7} {
			for seed := int64(1); seed <= 3; seed++ {
				rng, refRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				g, err := BarabasiAlbert(n, m, rng)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameGraph(g, refBarabasiAlbert(n, m, refRng)); err != nil {
					t.Fatalf("n=%d m=%d seed=%d: %v", n, m, seed, err)
				}
				if rng.Int63() != refRng.Int63() {
					t.Fatalf("n=%d m=%d seed=%d: generators consumed different rng draws", n, m, seed)
				}
			}
		}
	}
}

func TestGeneratorsMatchIncremental(t *testing.T) {
	for _, n := range []int{0, 2, 3, 10, 500} {
		if err := sameGraph(Ring(n), refRing(n)); err != nil {
			t.Errorf("Ring(%d): %v", n, err)
		}
	}
	for _, n := range []int{0, 1, 2, 10, 500} {
		if err := sameGraph(Line(n), refLine(n)); err != nil {
			t.Errorf("Line(%d): %v", n, err)
		}
	}
	for _, n := range []int{0, 1, 2, 5, 40} {
		if err := sameGraph(Complete(n), refComplete(n)); err != nil {
			t.Errorf("Complete(%d): %v", n, err)
		}
	}
	rng := rand.New(rand.NewSource(9))
	g, err := BarabasiAlbert(300, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(300)
	for _, keep := range [][]NodeID{
		nil,
		{7},
		{3, 2, 1, 0}, // reversed numbering flips channel orientation
		permNodes(perm[:150]),
		permNodes(perm),
	} {
		sub, remap := g.Subgraph(keep)
		want, wantRemap := refSubgraph(g, keep)
		if err := sameGraph(sub, want); err != nil {
			t.Errorf("Subgraph(%d nodes): %v", len(keep), err)
		}
		if !slices.Equal(remap, wantRemap) {
			t.Errorf("Subgraph(%d nodes): remap differs", len(keep))
		}
	}
}

func permNodes(p []int) []NodeID {
	out := make([]NodeID, len(p))
	for i, v := range p {
		out[i] = NodeID(v)
	}
	return out
}

// TestCompactMatchesBuild grows a graph with AddChannel, reading it
// between additions so that compactions happen both from the
// geometric threshold and from reads, and checks it against the
// reference at every read and against fromEdges at the end.
func TestCompactMatchesBuild(t *testing.T) {
	const n = 400
	rng := rand.New(rand.NewSource(5))
	g := New(n)
	deg := make([]int, n)
	compactions := 0
	for i := 0; i < 3000; i++ {
		a := NodeID(rng.Intn(n))
		b := NodeID((int(a) + 1 + rng.Intn(n-1)) % n)
		before := g.baseEdge
		idx, err := g.AddChannel(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if g.baseEdge != before {
			compactions++
		}
		if got := g.ChannelIndex(b, a); got != idx {
			t.Fatalf("ChannelIndex(%d,%d) = %d after AddChannel returned %d", b, a, got, idx)
		}
		if idx == g.NumChannels()-1 {
			deg[a]++
			deg[b]++
		}
		if g.Degree(a) != deg[a] {
			t.Fatalf("Degree(%d) = %d, want %d", a, g.Degree(a), deg[a])
		}
		if rng.Intn(100) == 0 {
			u := NodeID(rng.Intn(n))
			if g.pendN.Load() != 0 {
				compactions++
			}
			nbrs, chans := g.NeighborsWithChannels(u) // compacts
			ref := refCSR(n, g.Channels())
			if !slices.Equal(nbrs, ref.arena[ref.off[u]:ref.off[u+1]]) || !slices.Equal(chans, ref.arenaCh[ref.off[u]:ref.off[u+1]]) {
				t.Fatalf("after %d channels, node %d adjacency %v/%v, want %v/%v", g.NumChannels(), u,
					nbrs, chans, ref.arena[ref.off[u]:ref.off[u+1]], ref.arenaCh[ref.off[u]:ref.off[u+1]])
			}
		}
	}
	t.Logf("%d compactions", compactions)
	if compactions < 10 {
		t.Fatalf("only %d compactions: the test no longer crosses the threshold", compactions)
	}
	want, err := fromEdges(n, slices.Clone(g.Channels()))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameGraph(g, want); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesErrors(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
		want  string // in the error message
	}{
		{"self-loop", 3, []Edge{{0, 1}, {2, 2}}, "self-loop"},
		{"out of range", 3, []Edge{{0, 3}}, "out of range"},
		{"negative", 3, []Edge{{-1, 0}}, "out of range"},
		{"no nodes", 0, []Edge{{0, 1}}, "out of range"},
		{"duplicate", 3, []Edge{{0, 1}, {1, 2}, {0, 1}}, "duplicate channel 0-1 (channels 0 and 2)"},
		{"reversed duplicate", 3, []Edge{{2, 0}, {0, 2}}, "duplicate channel 0-2 (channels 0 and 1)"},
	}
	for _, c := range cases {
		if _, err := refBuild(c.n, slices.Clone(c.edges)); err == nil {
			t.Errorf("%s: incremental build accepted %v", c.name, c.edges)
		}
		g, err := fromEdges(c.n, slices.Clone(c.edges))
		if err == nil || g != nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: fromEdges(%d, %v) = %v, %v; want an error containing %q", c.name, c.n, c.edges, g, err, c.want)
		}
	}
}

// TestRippleLikeAllocsConstant guards the bulk build: a per-node
// allocation (a boxed sort, a map per node) would make the count grow
// with n.
func TestRippleLikeAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := RippleLike(n, rand.New(rand.NewSource(1))); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if large > small {
		t.Errorf("RippleLike allocations grow with n: %v at n=1000, %v at n=10000", small, large)
	}
}

// FuzzBuildMatchesIncremental decodes bytes into a node count and an
// edge list, builds the graph with fromEdges and with an AddChannel
// loop, and checks that both reject the same inputs and otherwise
// build the same graph slab for slab. Endpoints range over [-1, n], so
// out-of-range IDs, self-loops and duplicates all occur.
func FuzzBuildMatchesIncremental(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{3, 0, 1, 1, 0})
	f.Add([]byte{3, 2, 2})
	f.Add([]byte{2, 0, 3})
	f.Add([]byte{0})
	f.Add([]byte{30, 5, 9, 9, 1, 1, 20, 20, 5, 7, 8, 8, 9, 4, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 40
		var edges []Edge
		for i := 1; i+1 < len(data); i += 2 {
			edges = append(edges, Edge{NodeID(int(data[i])%(n+2) - 1), NodeID(int(data[i+1])%(n+2) - 1)})
		}
		ref, refErr := refBuild(n, slices.Clone(edges))
		g, err := fromEdges(n, slices.Clone(edges))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("n=%d edges=%v: fromEdges error %v, incremental error %v", n, edges, err, refErr)
		}
		if err != nil {
			return
		}
		if err := sameGraph(g, ref); err != nil {
			t.Fatalf("n=%d edges=%v: %v", n, edges, err)
		}
	})
}

var benchGraph *Graph

func BenchmarkRippleLike(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"n=10k", 10_000}, {"n=100k", 100_000}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := RippleLike(c.n, rand.New(rand.NewSource(int64(i))))
				if err != nil {
					b.Fatal(err)
				}
				benchGraph = g
			}
		})
	}
}
