package topo

import (
	"slices"

	"mplsvpn/internal/snapshot"
)

// Ranks numbers a set of nodes densely: a node's rank is its position in the
// set sorted by ID. A protocol that runs on some of a graph's nodes (the
// provider's routers, not the customer stubs) keeps its per-router state in
// slices indexed by rank, sized by the set and not by the graph; ascending
// rank is ascending ID, so walking such a slice visits routers in the order
// every checkpoint and every deterministic loop wants.
type Ranks struct {
	Nodes []NodeID // ascending; Nodes[r] is the node of rank r
	of    []int32  // of[n] is n's rank or -1, for n up to the largest member
}

// RanksOf indexes the given nodes (in any order, repeats ignored).
func RanksOf(nodes []NodeID) *Ranks {
	r := &Ranks{Nodes: slices.Clone(nodes)}
	slices.Sort(r.Nodes)
	r.Nodes = slices.Compact(r.Nodes)
	if n := len(r.Nodes); n > 0 {
		r.of = make([]int32, r.Nodes[n-1]+1)
	}
	for i := range r.of {
		r.of[i] = -1
	}
	for i, n := range r.Nodes {
		r.of[n] = int32(i)
	}
	return r
}

// Of returns n's rank, or -1 for a node outside the set — any value at all,
// so it is also the bounds check for a node ID read from a checkpoint.
func (r *Ranks) Of(n NodeID) int {
	if n < 0 || int(n) >= len(r.of) {
		return -1
	}
	return int(r.of[n])
}

// Key is the snapshot.Dense key of a slice indexed by rank: the node's ID on
// the wire, as the map the slice replaced was keyed. A save writes the node
// of the given rank; a load ignores the rank and returns that of the node it
// reads, -1 for one outside the set.
func (r *Ranks) Key(c *snapshot.Codec, rank int) int {
	var n NodeID
	if rank >= 0 {
		n = r.Nodes[rank]
	}
	snapshot.Int(c, &n)
	return r.Of(n)
}
