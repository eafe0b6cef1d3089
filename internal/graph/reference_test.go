package graph

import (
	"repro/internal/topo"
)

// refBans is the oracle's view of a ban set: node bans by NodeID and
// directed-edge bans keyed 2·channel + direction, as in Scratch. A nil
// refBans bans nothing.
type refBans struct {
	node []bool
	edge []bool
}

// refSearch is the one-sided BFS that Scratch.search replaced, kept as
// the differential oracle: a FIFO queue from s, neighbours scanned in
// adjacency order, the first discovery of a node fixing its parent, and
// the path read back from t's parent chain the moment t is discovered.
// That parent tree makes the result the lexicographically first
// shortest usable path in adjacency order — the contract the
// bidirectional search must reproduce byte for byte. s is never
// node-banned; a banned t is never reached.
func refSearch(g *topo.Graph, s, t topo.NodeID, usable Usable, cu ChUsable, bans *refBans) []topo.NodeID {
	if s == t {
		return []topo.NodeID{s}
	}
	off, nbrs, chans := g.AdjacencyView()
	n := g.NumNodes()
	parent := make([]topo.NodeID, n)
	seen := make([]bool, n)
	parent[s], seen[s] = s, true
	queue := []topo.NodeID{s}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for i := off[u]; i < off[u+1]; i++ {
			v, ch := nbrs[i], chans[i]
			if seen[v] {
				continue
			}
			if bans != nil {
				d := 2 * ch
				if u > v {
					d++
				}
				if bans.node[v] || bans.edge[d] {
					continue
				}
			}
			if usable != nil && !usable(u, v) {
				continue
			}
			if cu != nil && !cu(u, v, ch) {
				continue
			}
			parent[v], seen[v] = u, true
			if v == t {
				var rev []topo.NodeID
				for x := t; ; x = parent[x] {
					rev = append(rev, x)
					if x == s {
						break
					}
				}
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				return rev
			}
			queue = append(queue, v)
		}
	}
	return nil
}
