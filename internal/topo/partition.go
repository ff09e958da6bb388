package topo

import (
	"fmt"
	"math"

	"mplsvpn/internal/sim"
)

// PartitionResult describes a k-way node partition of the graph for the
// sharded simulation backend.
type PartitionResult struct {
	NumShards int
	Assign    []int // node -> shard index

	// CutLinks counts directed links whose endpoints land on different
	// shards; every packet over one costs a barrier handoff.
	CutLinks int
	// MinCutDelay is the smallest propagation delay over any cut link: the
	// largest legal conservative lookahead for this partition (sim.MaxTime
	// when nothing is cut).
	MinCutDelay sim.Time
	// PairDelay[i][j] is the smallest propagation delay over any cut link
	// from a shard-i node to a shard-j node — the per-pair conservative
	// lookahead bound (sim.MaxTime when no i->j link exists, 0 on the
	// diagonal). Its minimum off-diagonal finite entry equals MinCutDelay,
	// and every entry is at least MinCutDelay: feeding the matrix to
	// sim.Engine.SetLookahead can only lengthen segments, never shorten
	// them below the classic global bound.
	PairDelay [][]sim.Time
}

// Partition colors the graph's nodes into at most k balanced connected
// regions for parallel execution. The decomposition follows the paper's
// own structure: a site's hosts, CE, and access tail hang off one PE, so
// the partition must never split them from it — zero- and near-zero-delay
// edges cannot be cut, because a cut edge's delay bounds the engine's
// lookahead.
//
// The algorithm is deterministic (no RNG, ties broken by lowest ID):
//
//  1. contract every zero-delay duplex link (host/LAN edges) into
//     supernodes — those edges can never be cut;
//  2. pick k seed supernodes by greedy k-center over unweighted hop
//     distance, spreading seeds as far apart as possible;
//  3. grow the k regions breadth-first, always extending the currently
//     smallest region (by node count), so regions stay balanced and
//     connected.
//
// Disconnected components are folded into the smallest region when the
// frontiers run dry. The result may use fewer than k shards when the
// graph has fewer supernodes.
func Partition(g *Graph, k int) *PartitionResult {
	n := g.NumNodes()
	if n == 0 {
		return &PartitionResult{NumShards: 1, Assign: []int{}, MinCutDelay: sim.MaxTime}
	}
	if k < 1 {
		k = 1
	}

	// 1. Contract zero-delay edges with union-find.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra // lowest ID roots: deterministic representatives
		}
	}
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(LinkID(i))
		if l.Delay <= 0 {
			union(int(l.From), int(l.To))
		}
	}

	// Dense supernode IDs in node order.
	compOf := make([]int, n)
	var compWeight []int
	index := map[int]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		c, ok := index[r]
		if !ok {
			c = len(compWeight)
			index[r] = c
			compWeight = append(compWeight, 0)
		}
		compOf[i] = c
		compWeight[c]++
	}
	nc := len(compWeight)
	if k > nc {
		k = nc
	}

	// Supernode adjacency, deduplicated, neighbor lists in deterministic
	// (link scan) order.
	adj := make([][]int, nc)
	seen := make(map[[2]int]bool)
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(LinkID(i))
		a, b := compOf[l.From], compOf[l.To]
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		adj[a] = append(adj[a], b)
	}

	// 2. Greedy k-center seeds over hop distance: dist holds each
	// supernode's distance to the nearest chosen seed.
	seeds := []int{0}
	dist := make([]int, nc)
	multiBFS := func(srcs []int) {
		for i := range dist {
			dist[i] = math.MaxInt
		}
		queue := []int{}
		for _, s := range srcs {
			dist[s] = 0
			queue = append(queue, s)
		}
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			for _, nb := range adj[c] {
				if dist[c]+1 < dist[nb] {
					dist[nb] = dist[c] + 1
					queue = append(queue, nb)
				}
			}
		}
	}
	for len(seeds) < k {
		multiBFS(seeds)
		best, bestD := -1, -1
		for c := 0; c < nc; c++ {
			d := dist[c]
			if d == 0 {
				continue
			}
			if d == math.MaxInt {
				d = math.MaxInt - 1 // unreachable: maximally far, seed it
			}
			if d > bestD {
				best, bestD = c, d
			}
		}
		if best < 0 {
			break
		}
		seeds = append(seeds, best)
	}
	k = len(seeds)

	// 3. Balanced multi-source BFS growth.
	compShard := make([]int, nc)
	for i := range compShard {
		compShard[i] = -1
	}
	frontiers := make([][]int, k)
	weights := make([]int, k)
	assignComp := func(c, s int) {
		compShard[c] = s
		weights[s] += compWeight[c]
		frontiers[s] = append(frontiers[s], c)
	}
	for s, c := range seeds {
		assignComp(c, s)
	}
	remaining := nc - k
	for remaining > 0 {
		// Smallest region with a live frontier claims the next supernode.
		best := -1
		for s := 0; s < k; s++ {
			if len(frontiers[s]) == 0 {
				continue
			}
			if best < 0 || weights[s] < weights[best] {
				best = s
			}
		}
		if best < 0 {
			// Disconnected leftovers: fold the lowest-ID unassigned
			// supernode into the smallest region and keep growing.
			small := 0
			for s := 1; s < k; s++ {
				if weights[s] < weights[small] {
					small = s
				}
			}
			for c := 0; c < nc; c++ {
				if compShard[c] < 0 {
					assignComp(c, small)
					remaining--
					break
				}
			}
			continue
		}
		// Pop the frontier until an unassigned neighbor appears.
		grew := false
		for len(frontiers[best]) > 0 && !grew {
			c := frontiers[best][0]
			rest := frontiers[best][1:]
			next := -1
			for _, nb := range adj[c] {
				if compShard[nb] < 0 {
					next = nb
					break
				}
			}
			if next < 0 {
				frontiers[best] = rest
				continue
			}
			assignComp(next, best)
			remaining--
			grew = true
		}
	}

	res := &PartitionResult{NumShards: k, Assign: make([]int, n), MinCutDelay: sim.MaxTime}
	for i := 0; i < n; i++ {
		res.Assign[i] = compShard[compOf[i]]
	}
	res.PairDelay = make([][]sim.Time, k)
	for i := range res.PairDelay {
		res.PairDelay[i] = make([]sim.Time, k)
		for j := range res.PairDelay[i] {
			if i != j {
				res.PairDelay[i][j] = sim.MaxTime
			}
		}
	}
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(LinkID(i))
		si, sj := res.Assign[l.From], res.Assign[l.To]
		if si != sj {
			res.CutLinks++
			if l.Delay < res.MinCutDelay {
				res.MinCutDelay = l.Delay
			}
			if l.Delay < res.PairDelay[si][sj] {
				res.PairDelay[si][sj] = l.Delay
			}
		}
	}
	return res
}

// Validate checks the partition invariants against g: full coverage, shard
// indices in range, and no zero-delay link cut.
func (r *PartitionResult) Validate(g *Graph) error {
	if len(r.Assign) != g.NumNodes() {
		return fmt.Errorf("topo: partition covers %d nodes, graph has %d", len(r.Assign), g.NumNodes())
	}
	for node, s := range r.Assign {
		if s < 0 || s >= r.NumShards {
			return fmt.Errorf("topo: node %d assigned to shard %d of %d", node, s, r.NumShards)
		}
	}
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(LinkID(i))
		if r.Assign[l.From] != r.Assign[l.To] && l.Delay <= 0 {
			return fmt.Errorf("topo: zero-delay link %s->%s cut by partition", g.Name(l.From), g.Name(l.To))
		}
	}
	if r.PairDelay != nil {
		if len(r.PairDelay) != r.NumShards {
			return fmt.Errorf("topo: pair-delay matrix has %d rows for %d shards", len(r.PairDelay), r.NumShards)
		}
		min := sim.MaxTime
		for i, row := range r.PairDelay {
			if len(row) != r.NumShards {
				return fmt.Errorf("topo: pair-delay row %d has %d entries for %d shards", i, len(row), r.NumShards)
			}
			for j, d := range row {
				if i == j {
					continue
				}
				if d < r.MinCutDelay {
					return fmt.Errorf("topo: pair bound %d->%d is %v, below the global min-cut delay %v", i, j, d, r.MinCutDelay)
				}
				if d < min {
					min = d
				}
			}
		}
		if r.CutLinks > 0 && min != r.MinCutDelay {
			return fmt.Errorf("topo: tightest pair bound %v disagrees with min-cut delay %v", min, r.MinCutDelay)
		}
	}
	return nil
}
