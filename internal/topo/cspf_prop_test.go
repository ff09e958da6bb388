package topo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mplsvpn/internal/sim"
)

// randomGraph builds a connected random topology with varied metrics,
// bandwidth headroom, reservations, and a few administratively-down
// links — the full input space of the TE admission-control path.
func randomGraph(rng *rand.Rand) *Graph {
	g := New()
	n := 8 + rng.Intn(16)
	nodes := make([]NodeID, n)
	for i := range nodes {
		nodes[i] = g.AddNode(fmt.Sprintf("n%d", i))
	}
	// Random spanning tree first so most of the graph is reachable.
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		g.AddDuplexLink(nodes[i], nodes[j], 1e9, sim.Millisecond, 1+rng.Intn(10))
	}
	// Then random extra edges.
	for e := 0; e < n; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		g.AddDuplexLink(nodes[a], nodes[b], 1e9, sim.Millisecond, 1+rng.Intn(10))
	}
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(LinkID(i))
		l.ReservedBw = float64(rng.Intn(11)) * 100e6 // 0..1000 Mb/s reserved
		if rng.Intn(12) == 0 {
			l.Down = true
		}
	}
	return g
}

// randomConstraints draws a constraint set: sometimes a bandwidth floor,
// sometimes excluded links and nodes.
func randomConstraints(rng *rand.Rand, g *Graph, src NodeID) Constraints {
	var c Constraints
	if rng.Intn(2) == 0 {
		c.MinAvailableBw = float64(1+rng.Intn(10)) * 100e6
	}
	if rng.Intn(2) == 0 {
		c.ExcludeLinks = map[LinkID]bool{}
		for i := 0; i < 1+rng.Intn(4); i++ {
			c.ExcludeLinks[LinkID(rng.Intn(g.NumLinks()))] = true
		}
	}
	if rng.Intn(3) == 0 {
		c.ExcludeNodes = map[NodeID]bool{}
		for i := 0; i < 1+rng.Intn(3); i++ {
			nd := NodeID(rng.Intn(g.NumNodes()))
			if nd != src {
				c.ExcludeNodes[nd] = true
			}
		}
	}
	if rng.Intn(3) == 0 {
		// A node scope: the source plus roughly three nodes in four.
		c.Within = make([]bool, g.NumNodes())
		for i := range c.Within {
			c.Within[i] = NodeID(i) == src || rng.Intn(4) != 0
		}
	}
	return c
}

// inScope restates the node-scope rule independently: no mask admits every
// node; a mask admits the nodes it marks and none beyond its length.
func inScope(c Constraints, n NodeID) bool {
	return c.Within == nil || (int(n) < len(c.Within) && c.Within[n])
}

// linkEligible restates the CSPF pruning rule independently.
func linkEligible(l *Link, lid LinkID, c Constraints) bool {
	if l.Down || c.ExcludeLinks[lid] || !inScope(c, l.From) || !inScope(c, l.To) {
		return false
	}
	if c.MinAvailableBw > 0 && l.AvailableBw() < c.MinAvailableBw {
		return false
	}
	return true
}

// bellmanFord is the reference shortest-path oracle: O(V*E) relaxation
// over eligible links, never relaxing out of an excluded transit node.
func bellmanFord(g *Graph, src NodeID, c Constraints) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = math.MaxInt
	}
	dist[src] = 0
	for round := 0; round < g.NumNodes(); round++ {
		changed := false
		for lid := 0; lid < g.NumLinks(); lid++ {
			l := g.Link(LinkID(lid))
			if !linkEligible(l, LinkID(lid), c) {
				continue
			}
			if l.From != src && c.ExcludeNodes[l.From] {
				continue // no transit through excluded nodes
			}
			if dist[l.From] == math.MaxInt {
				continue
			}
			if nd := dist[l.From] + l.Metric; nd < dist[l.To] {
				dist[l.To] = nd
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// TestCSPFMatchesReference: on random graphs under random constraints,
// CSPF distances equal the Bellman-Ford oracle, every returned path is
// walkable and constraint-clean, and its hop metrics sum to the claimed
// distance.
func TestCSPFMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		src := NodeID(rng.Intn(g.NumNodes()))
		c := randomConstraints(rng, g, src)

		res := g.CSPF(src, c)
		want := bellmanFord(g, src, c)

		for v := 0; v < g.NumNodes(); v++ {
			if res.Dist[v] != want[v] {
				t.Fatalf("seed %d: dist[%d] = %d, reference %d", seed, v, res.Dist[v], want[v])
			}
			if !res.Reachable(NodeID(v)) {
				if want[v] != math.MaxInt && NodeID(v) != src {
					t.Fatalf("seed %d: node %d reachable per reference but not CSPF", seed, v)
				}
				continue
			}
			path, ok := res.PathTo(g, NodeID(v))
			if !ok {
				t.Fatalf("seed %d: Reachable(%d) but no path", seed, v)
			}
			at, cost := src, 0
			for _, lid := range path.Links {
				l := g.Link(lid)
				if l.From != at {
					t.Fatalf("seed %d: path to %d broken at link %d (%d -> %d, at %d)",
						seed, v, lid, l.From, l.To, at)
				}
				if !linkEligible(l, lid, c) {
					t.Fatalf("seed %d: path to %d uses pruned link %d", seed, v, lid)
				}
				if at != src && c.ExcludeNodes[at] {
					t.Fatalf("seed %d: path to %d transits excluded node %d", seed, v, at)
				}
				at, cost = l.To, cost+l.Metric
			}
			if at != NodeID(v) || cost != res.Dist[v] {
				t.Fatalf("seed %d: path to %d ends at %d with cost %d (dist %d)",
					seed, v, at, cost, res.Dist[v])
			}
		}
	}
}

// TestCSPFBandwidthExclusion pins the admission-control property on its
// own: raising MinAvailableBw can only lose reachability and lengthen
// paths, never shorten them, and at a floor above every link's headroom
// nothing but the source remains.
func TestCSPFBandwidthExclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng)
		src := NodeID(rng.Intn(g.NumNodes()))
		prev := g.CSPF(src, Constraints{})
		for bw := 100e6; bw <= 1100e6; bw += 200e6 {
			cur := g.CSPF(src, Constraints{MinAvailableBw: bw})
			for v := 0; v < g.NumNodes(); v++ {
				if cur.Dist[v] != math.MaxInt && cur.Dist[v] < prev.Dist[v] {
					t.Fatalf("trial %d bw %.0f: dist[%d] improved %d -> %d under a tighter floor",
						trial, bw, v, prev.Dist[v], cur.Dist[v])
				}
			}
			prev = cur
		}
		all := g.CSPF(src, Constraints{MinAvailableBw: 2e9})
		for v, d := range all.Dist {
			if NodeID(v) != src && d != math.MaxInt {
				t.Fatalf("trial %d: node %d reachable with an unsatisfiable floor", trial, v)
			}
		}
	}
}

// TestCSPFDeterministic: identical inputs give identical trees, including
// the tie-break links.
func TestCSPFDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomGraph(rng)
	src := NodeID(0)
	c := Constraints{MinAvailableBw: 300e6}
	a, b := g.CSPF(src, c), g.CSPF(src, c)
	for v := range a.Dist {
		if a.Dist[v] != b.Dist[v] || a.Prev[v] != b.Prev[v] {
			t.Fatalf("node %d: (%d,%d) vs (%d,%d)", v, a.Dist[v], a.Prev[v], b.Dist[v], b.Prev[v])
		}
	}
}

// TestCSPFIntoZeroAlloc: one scratch serves searches over graphs of
// different sizes, scoped and not, each tree equal to CSPF's from scratch;
// once the scratch has met the largest graph, a search allocates nothing.
func TestCSPFIntoZeroAlloc(t *testing.T) {
	var sc CSPFScratch
	var largest *Graph
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		src := NodeID(rng.Intn(g.NumNodes()))
		c := randomConstraints(rng, g, src)
		want, got := g.CSPF(src, c), g.CSPFInto(&sc, src, c)
		if got.Source != want.Source || !slices.Equal(got.Dist, want.Dist) || !slices.Equal(got.Prev, want.Prev) {
			t.Fatalf("seed %d: CSPFInto after %d searches = %+v, CSPF = %+v", seed, seed, *got, *want)
		}
		if largest == nil || g.NumNodes() > largest.NumNodes() {
			largest = g
		}
	}
	c := Constraints{MinAvailableBw: 200e6}
	if allocs := testing.AllocsPerRun(50, func() { largest.CSPFInto(&sc, 0, c) }); allocs != 0 {
		t.Fatalf("a search into a scratch that has met the graph costs %.1f allocations, want 0", allocs)
	}
}
