package graph

import (
	"sync"

	"repro/internal/topo"
)

// Scratch is the reusable working memory of the path searches in this
// package: the shared frontier buffer and per-side distance arrays of
// the bidirectional search, epoch-stamped visited marks (a new search
// bumps the epoch instead of clearing — reset is O(1), and only the
// nodes a search actually touches are ever written), a result buffer,
// and the Yen spur ban-sets keyed by channel index. One Scratch
// amortises every per-call allocation of ShortestPath and YenKSP: a
// steady-state search with a warm Scratch allocates nothing.
//
// A Scratch is not safe for concurrent use; callers either own one per
// goroutine or draw from AcquireScratch/ReleaseScratch. Results
// returned by Scratch methods alias the scratch buffers and are valid
// only until the next search on the same Scratch — callers that retain
// a path must copy it.
type Scratch struct {
	// Forward side: fdist[v] is v's hop distance from s, valid iff
	// fmark[v] == epoch; the exactness walk overwrites it with -1 once
	// v is known to lie on no shortest path. Backward side: bdist[v] is
	// v's hop distance to t, valid iff bmark[v] == epoch. One byte of
	// mark per node keeps both visited sets L1-resident.
	fmark, bmark []uint8
	fdist, bdist []int32
	epoch        uint8
	queue        []topo.NodeID // forward layers fill it from the front, backward layers from the back
	path         []topo.NodeID

	// Yen spur state: node bans for the root prefix, directed-edge bans
	// keyed 2·channel + direction (direction 1 = higher endpoint to
	// lower, exploiting Edge canonicalisation, so no channel record is
	// ever loaded on the search path). Stamped with banEpoch so clearing
	// a spur's bans is a single increment; one byte per slot keeps both
	// sets cache-resident.
	nodeBan  []uint8
	edgeBan  []uint8
	banEpoch uint8
}

// NewScratch returns an empty Scratch; buffers grow to fit the first
// graph searched.
func NewScratch() *Scratch { return new(Scratch) }

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// AcquireScratch draws a Scratch from the package pool. Pair with
// ReleaseScratch.
func AcquireScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// ReleaseScratch returns a Scratch to the package pool. The caller must
// not use sc, or any path aliasing its buffers, afterwards.
func ReleaseScratch(sc *Scratch) { scratchPool.Put(sc) }

// ensure sizes the scratch for g and opens a fresh visited epoch.
func (sc *Scratch) ensure(g *topo.Graph) {
	if n := g.NumNodes(); len(sc.fmark) < n {
		sc.fmark = make([]uint8, n)
		sc.bmark = make([]uint8, n)
		sc.fdist = make([]int32, n)
		sc.bdist = make([]int32, n)
		sc.queue = make([]topo.NodeID, n)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // uint8 wrap: stale stamps could alias, clear once
		clear(sc.fmark)
		clear(sc.bmark)
		sc.epoch = 1
	}
}

// ensureBans sizes the ban-sets for g and opens a fresh ban epoch.
func (sc *Scratch) ensureBans(g *topo.Graph) {
	if n := g.NumNodes(); len(sc.nodeBan) < n {
		sc.nodeBan = make([]uint8, n)
	}
	if m := 2 * g.NumChannels(); len(sc.edgeBan) < m {
		sc.edgeBan = make([]uint8, m)
	}
	sc.banEpoch++
	if sc.banEpoch == 0 { // uint8 wrap, see ensure
		clear(sc.nodeBan)
		clear(sc.edgeBan)
		sc.banEpoch = 1
	}
}

// banNode excludes v from the next banned search.
func (sc *Scratch) banNode(v topo.NodeID) { sc.nodeBan[v] = sc.banEpoch }

// banEdge excludes the directed hop u→v over channel idx from the next
// banned search.
func (sc *Scratch) banEdge(idx int, u, v topo.NodeID) {
	d := 0
	if u > v {
		d = 1
	}
	sc.edgeBan[2*idx+d] = sc.banEpoch
}

// banChannel excludes channel idx in both directions.
func (sc *Scratch) banChannel(idx int) {
	sc.edgeBan[2*idx] = sc.banEpoch
	sc.edgeBan[2*idx+1] = sc.banEpoch
}

// ShortestPath is graph.ShortestPath running entirely in the scratch
// buffers: the lexicographically first shortest usable path from s to
// t in adjacency order, or nil. The returned slice aliases the scratch
// and is valid until the next search on sc.
func (sc *Scratch) ShortestPath(g *topo.Graph, s, t topo.NodeID, usable Usable) []topo.NodeID {
	return sc.search(g, s, t, usable, nil, false)
}

// ShortestPathCh is ShortestPath with a channel-aware predicate: the
// search hands cu the channel index it is already holding for the hop,
// so predicates keyed by channel (the elephant router's probed-residual
// filter) avoid a per-hop ChannelIndex lookup.
func (sc *Scratch) ShortestPathCh(g *topo.Graph, s, t topo.NodeID, cu ChUsable) []topo.NodeID {
	return sc.search(g, s, t, nil, cu, false)
}

// search returns the lexicographically first shortest usable path from
// s to t in adjacency order: among all minimum-hop paths whose every
// directed hop passes the filters, the one whose first hop comes
// earliest in s's adjacency list, then earliest in the next node's
// list, and so on. That is exactly the path a one-sided BFS from s
// reads back from its parent tree, and callers and goldens rely on it.
// banned additionally applies the scratch ban-sets (Yen spur searches,
// disjoint-path searches); s itself is never node-banned, and a banned
// t is unreachable.
//
// The search is bidirectional and runs in two steps:
//
//  1. Whole BFS layers grow from s over hops u→v and from t over
//     reverse hops, always expanding the side whose frontier has the
//     smaller degree sum, until a layer touches the other side's ball.
//     With both balls complete to radii A and B and disjoint, the first
//     touch proves the distance is D = A+B+1.
//  2. A greedy walk from s takes, at each step, the first allowed
//     neighbour in adjacency order whose distance to t is exactly one
//     less. Beyond depth A that distance is read off the backward ball;
//     within it, a memoised check over the forward layers decides it
//     (onShortest). Greedy choice over exact distances yields the
//     lexicographically first shortest path.
func (sc *Scratch) search(g *topo.Graph, s, t topo.NodeID, usable Usable, cu ChUsable, banned bool) []topo.NodeID {
	if s == t {
		sc.path = append(sc.path[:0], s)
		return sc.path
	}
	if banned && sc.nodeBan[t] == sc.banEpoch {
		return nil
	}
	sc.ensure(g)
	st := searchState{sc: sc, s: s, usable: usable, cu: cu, banned: banned}
	st.off, st.nbrs, st.chans = g.AdjacencyView()
	ep, q := sc.epoch, sc.queue
	sc.fmark[s], sc.fdist[s] = ep, 0
	sc.bmark[t], sc.bdist[t] = ep, 0
	q[0], q[len(q)-1] = s, t
	fLo, fHi, fCost := 0, 1, st.degree(s)
	bLo, bHi, bCost := len(q)-1, len(q), st.degree(t)
	var fRadius, bRadius int32
	for {
		var lo, hi, cost int
		var met bool
		if fCost <= bCost {
			if lo, hi, cost, met = st.grow(fLo, fHi, fRadius+1, false); met {
				break
			}
			fLo, fHi, fCost = lo, hi, cost
			fRadius++
		} else {
			if lo, hi, cost, met = st.grow(bLo, bHi, bRadius+1, true); met {
				break
			}
			bLo, bHi, bCost = lo, hi, cost
			bRadius++
		}
		if lo == hi { // a side ran out of nodes: t is unreachable
			return nil
		}
	}

	st.dist, st.fRadius = fRadius+bRadius+1, fRadius
	path := append(sc.path[:0], s)
	for x, lvl := s, int32(1); lvl <= st.dist; lvl++ {
		x = st.next(x, lvl)
		path = append(path, x)
	}
	sc.path = path
	return path
}

// searchState is one search's view of its inputs: the graph's CSR
// slabs, the source, the hop filters and, once the balls have met, the
// two numbers the exactness walk reads — dist, the s→t hop distance,
// and fRadius, the depth to which the forward ball is complete. It
// lives on search's stack, so a predicate the caller builds on the fly
// (a method value, say) stays off the heap.
type searchState struct {
	sc            *Scratch
	off           []int32
	nbrs          []topo.NodeID
	chans         []int32
	s             topo.NodeID
	usable        Usable
	cu            ChUsable
	banned        bool
	dist, fRadius int32
}

func (st *searchState) degree(v topo.NodeID) int { return int(st.off[v+1] - st.off[v]) }

// grow expands one whole BFS layer of a frontier, stamping each new
// node with depth. Forward (rev false), the frontier is q[lo:hi], hops
// run frontier→new, and the new layer is appended after hi; backward,
// hops run new→frontier and the new layer is written downwards from lo.
// It returns the new layer's bounds and degree sum, or met as soon as a
// new node already belongs to the other side's ball. The unfiltered
// case — every mice-table first path and the plain-topology baselines —
// runs its own loop with no filter branches, and the predicate-free
// banned case (every mice-table Yen spur) checks its bans inline
// without calling out of the loop.
func (st *searchState) grow(lo, hi int, depth int32, rev bool) (nlo, nhi, cost int, met bool) {
	sc := st.sc
	own, other, dist, w := sc.fmark, sc.bmark, sc.fdist, hi
	if rev {
		own, other, dist, w = sc.bmark, sc.fmark, sc.bdist, lo
	}
	ep, q, off, s := sc.epoch, sc.queue, st.off, st.s
	banned, pred := st.banned, st.usable != nil || st.cu != nil
	nodeBan, edgeBan, banEpoch := sc.nodeBan, sc.edgeBan, sc.banEpoch
	if !banned && !pred {
		for _, u := range q[lo:hi] {
			for _, v := range st.nbrs[off[u]:off[u+1]] {
				if own[v] == ep {
					continue
				}
				if other[v] == ep {
					return 0, 0, 0, true
				}
				own[v], dist[v] = ep, depth
				cost += int(off[v+1] - off[v])
				if rev {
					w--
					q[w] = v
				} else {
					q[w] = v
					w++
				}
			}
		}
	} else {
		for _, u := range q[lo:hi] {
			a, b := off[u], off[u+1]
			run, crun := st.nbrs[a:b], st.chans[a:b]
			for i, v := range run {
				if own[v] == ep {
					continue
				}
				if banned {
					d := 2 * crun[i]
					if (u > v) != rev {
						d++
					}
					if edgeBan[d] == banEpoch || (nodeBan[v] == banEpoch && v != s) {
						continue
					}
				}
				if pred {
					tail, head := u, v
					if rev {
						tail, head = v, u
					}
					if !st.predOK(tail, head, crun[i]) {
						continue
					}
				}
				if other[v] == ep {
					return 0, 0, 0, true
				}
				own[v], dist[v] = ep, depth
				cost += int(off[v+1] - off[v])
				if rev {
					w--
					q[w] = v
				} else {
					q[w] = v
					w++
				}
			}
		}
	}
	if rev {
		return w, lo, cost, false
	}
	return hi, w, cost, false
}

// predOK applies the search's hop predicate to tail→head.
func (st *searchState) predOK(tail, head topo.NodeID, ch int32) bool {
	if st.usable != nil && !st.usable(tail, head) {
		return false
	}
	return st.cu == nil || st.cu(tail, head, ch)
}

// hopOK reports whether the directed hop u→v over channel ch passes
// the search's edge bans and predicate. Node bans need no check here:
// a node carrying a distance stamp was never banned.
func (st *searchState) hopOK(u, v topo.NodeID, ch int32) bool {
	if st.banned {
		d := 2 * ch
		if u > v {
			d++
		}
		if st.sc.edgeBan[d] == st.sc.banEpoch {
			return false
		}
	}
	return st.predOK(u, v, ch)
}

// next returns the first neighbour of x, in adjacency order, that is
// reachable over an allowed hop and lies at depth lvl on a shortest
// s→t path, or -1 if none does.
func (st *searchState) next(x topo.NodeID, lvl int32) topo.NodeID {
	sc := st.sc
	ep := sc.epoch
	a, b := st.off[x], st.off[x+1]
	run, crun := st.nbrs[a:b], st.chans[a:b]
	if lvl > st.fRadius {
		// Past the complete forward ball the remaining distance is at
		// most the backward radius, so the backward ball holds it
		// exactly.
		want := st.dist - lvl
		for i, v := range run {
			if sc.bmark[v] == ep && sc.bdist[v] == want && st.hopOK(x, v, crun[i]) {
				return v
			}
		}
		return -1
	}
	for i, v := range run {
		if sc.fmark[v] == ep && sc.fdist[v] == lvl && st.hopOK(x, v, crun[i]) && st.onShortest(v, lvl) {
			return v
		}
	}
	return -1
}

// onShortest reports whether v, at forward depth lvl within the
// complete forward ball, lies on a shortest s→t path: whether some
// allowed hop leads on to a node that does, one level deeper. The
// answer is memoised in the stamps: on a path, v joins the backward
// ball at its exact distance to t (no other backward stamp exists
// inside the complete forward ball, since the balls met only at its
// boundary); off every path, its forward depth becomes -1, which no
// later depth check matches.
func (st *searchState) onShortest(v topo.NodeID, lvl int32) bool {
	sc := st.sc
	if sc.bmark[v] == sc.epoch {
		return true
	}
	if st.next(v, lvl+1) < 0 {
		sc.fdist[v] = -1
		return false
	}
	sc.bmark[v], sc.bdist[v] = sc.epoch, st.dist-lvl
	return true
}

// appendCopy returns a retained copy of a scratch-aliased path.
func appendCopy(p []topo.NodeID) []topo.NodeID {
	return append(make([]topo.NodeID, 0, len(p)), p...)
}
