package topo

import (
	"math"
	"slices"
	"sort"
)

// SPFResult holds a shortest-path tree rooted at a source node.
type SPFResult struct {
	Source NodeID
	Dist   []int    // Dist[n] = total metric from Source, or math.MaxInt if unreachable
	Prev   []LinkID // Prev[n] = link used to reach n (-1 at source/unreachable)
}

// Constraints restrict link eligibility during CSPF. The zero value imposes
// no constraints, making CSPF equal to SPF.
type Constraints struct {
	// MinAvailableBw prunes links whose unreserved bandwidth is below this
	// value (bits per second). This is the admission-control input for
	// RSVP-TE: "Without knowledge of the commitments already made by the
	// network, it is impossible to route IP flows along paths where
	// resources ... could be guaranteed" (§2.2).
	MinAvailableBw float64
	// ExcludeLinks prunes specific directed links (e.g. for path
	// protection or to avoid a failed resource).
	ExcludeLinks map[LinkID]bool
	// ExcludeNodes prunes transit through specific nodes.
	ExcludeNodes map[NodeID]bool
	// Within, when non-nil, scopes the search to the nodes it marks: a link
	// with either end outside it (an unmarked node, or one added to the graph
	// after the mask was cut) is treated as absent. The provider's TE plane
	// searches its own routers this way, so a customer stub hanging off two
	// PEs can never carry — or cost — a provider path.
	Within []bool
}

// within reports whether node n is inside the constraint's scope.
func (c *Constraints) within(n NodeID) bool {
	return c.Within == nil || (int(n) < len(c.Within) && c.Within[n])
}

// NodeMask marks the given nodes in a mask sized to the graph as it stands,
// the form Constraints.Within takes.
func (g *Graph) NodeMask(nodes []NodeID) []bool {
	mask := make([]bool, g.NumNodes())
	for _, n := range nodes {
		mask[n] = true
	}
	return mask
}

// DistItem is one tentative distance in a search frontier; N is whatever the
// search names its nodes by (node IDs in CSPF, dense indices in SSSP).
type DistItem[N ~int] struct {
	Node N
	Dist int
}

// DistHeap is a binary min-heap of frontier entries by distance, held by
// value: a relaxation appends sixteen bytes instead of allocating an item
// and boxing it through container/heap. Entries of equal distance pop in
// no particular order; the searches' results do not depend on it, because
// every in-edge that can tie at a node leaves a strictly nearer one.
type DistHeap[N ~int] []DistItem[N]

type (
	spfItem = DistItem[NodeID]
	spfHeap = DistHeap[NodeID]
)

func (h *DistHeap[N]) Push(it DistItem[N]) {
	q := append(*h, it)
	i := len(q) - 1
	for i > 0 {
		up := (i - 1) / 2
		if q[up].Dist <= it.Dist {
			break
		}
		q[i] = q[up]
		i = up
	}
	q[i] = it
	*h = q
}

// Pop removes and returns a nearest entry. The heap must be non-empty.
func (h *DistHeap[N]) Pop() DistItem[N] {
	q := *h
	top := q[0]
	n := len(q) - 1
	it := q[n]
	q = q[:n]
	i := 0
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if kid+1 < n && q[kid+1].Dist < q[kid].Dist {
			kid++
		}
		if it.Dist <= q[kid].Dist {
			break
		}
		q[i] = q[kid]
		i = kid
	}
	if n > 0 {
		q[i] = it
	}
	*h = q
	return top
}

// SPF runs Dijkstra from src over up links using IGP metrics.
func (g *Graph) SPF(src NodeID) *SPFResult {
	return g.CSPF(src, Constraints{})
}

// CSPF runs constrained SPF from src: links that fail the constraints are
// treated as absent. Ties between equal-cost paths are broken by lower link
// ID, which makes path selection deterministic. The tree is the caller's to
// keep; CSPFInto is the same search into memory the caller reuses.
func (g *Graph) CSPF(src NodeID, c Constraints) *SPFResult {
	var s CSPFScratch
	g.search(&s, src, c)
	// A tree of its own: one kept must not keep the frontier alive.
	return &SPFResult{Source: src, Dist: s.tree.Dist, Prev: s.tree.Prev}
}

// CSPFScratch is the memory of a constrained search, kept for the next one:
// the tree, the frontier and the settled set. Its zero value is ready.
type CSPFScratch struct {
	tree SPFResult
	heap spfHeap
	done []bool
}

// CSPFInto is CSPF computed into s: it allocates only while the graph
// outgrows what s held, and the tree it returns is s's, overwritten by the
// next search into s. A caller that reads each tree before it searches
// again (a path it keeps is copied out by PathTo) needs no other.
func (g *Graph) CSPFInto(s *CSPFScratch, src NodeID, c Constraints) *SPFResult {
	g.search(s, src, c)
	return &s.tree
}

// search runs the constrained SPF from src into s.
func (g *Graph) search(s *CSPFScratch, src NodeID, c Constraints) {
	n := g.span(src, c)
	res := &s.tree
	res.Source = src
	if cap(res.Dist) < n {
		res.Dist, res.Prev, s.done = make([]int, n), make([]LinkID, n), make([]bool, n)
	}
	res.Dist, res.Prev, s.done = res.Dist[:n], res.Prev[:n], s.done[:n]
	for i := range res.Dist {
		res.Dist[i] = math.MaxInt
		res.Prev[i] = -1
	}
	clear(s.done)
	res.Dist[src] = 0

	h, done := append(s.heap[:0], spfItem{Node: src}), s.done
	for len(h) > 0 {
		u := h.Pop().Node
		if done[u] {
			continue
		}
		done[u] = true
		if c.ExcludeNodes[u] && u != src {
			// Node excluded from transit: settle it but do not relax
			// through it.
			continue
		}
		for _, lid := range g.OutLinks(u) {
			l := g.Link(lid)
			if l.Down || c.ExcludeLinks[lid] {
				continue
			}
			if c.MinAvailableBw > 0 && l.AvailableBw() < c.MinAvailableBw {
				continue
			}
			v := l.To
			if !c.within(v) {
				continue
			}
			nd := res.Dist[u] + l.Metric
			if nd < res.Dist[v] {
				res.Dist[v], res.Prev[v] = nd, lid
				h.Push(spfItem{Node: v, Dist: nd})
			} else if nd == res.Dist[v] && res.Prev[v] >= 0 && lid < res.Prev[v] {
				res.Prev[v] = lid // same distance, lower link: only the tie-break moves
			}
		}
	}
	s.heap = h
}

// span is the number of nodes a tree from src under c spans: a scoped tree
// spans only the node IDs its mask covers, since nothing beyond them can be
// reached, and Reachable and PathTo say so.
func (g *Graph) span(src NodeID, c Constraints) int {
	if c.Within != nil && int(src) < len(c.Within) && len(c.Within) < g.NumNodes() {
		return len(c.Within)
	}
	return g.NumNodes()
}

// Reachable reports whether dst has a path in the SPF tree.
func (r *SPFResult) Reachable(dst NodeID) bool {
	return dst == r.Source || (int(dst) < len(r.Prev) && r.Prev[dst] >= 0)
}

// PathTo extracts the path from the SPF source to dst.
func (r *SPFResult) PathTo(g *Graph, dst NodeID) (Path, bool) {
	links, ok := r.AppendPathTo(nil, g, dst)
	return Path{Links: links}, ok
}

// AppendPathTo is PathTo writing the path's links into buf's array, from
// its length on, when it has room.
func (r *SPFResult) AppendPathTo(buf []LinkID, g *Graph, dst NodeID) ([]LinkID, bool) {
	if dst == r.Source {
		return buf, true
	}
	if !r.Reachable(dst) {
		return buf, false
	}
	from := len(buf)
	for at := dst; at != r.Source; {
		lid := r.Prev[at]
		buf = append(buf, lid)
		at = g.Link(lid).From
	}
	slices.Reverse(buf[from:])
	return buf, true
}

// NextHop returns the first link on the shortest path from the SPF source
// to dst.
func (r *SPFResult) NextHop(g *Graph, dst NodeID) (LinkID, bool) {
	p, ok := r.PathTo(g, dst)
	if !ok || len(p.Links) == 0 {
		return -1, false
	}
	return p.Links[0], true
}

// KShortestPaths returns up to k loop-free paths from src to dst in
// non-decreasing cost order, using Yen's algorithm over CSPF. Used by the TE
// planner to offer alternatives when the shortest path lacks capacity.
func (g *Graph) KShortestPaths(src, dst NodeID, k int, c Constraints) []Path {
	base := g.CSPF(src, c)
	first, ok := base.PathTo(g, dst)
	if !ok {
		return nil
	}
	paths := []Path{first}
	var candidates []Path

	for len(paths) < k {
		prev := paths[len(paths)-1]
		prevNodes := prev.Nodes(g)
		for i := 0; i < len(prev.Links); i++ {
			spurNode := prevNodes[i]
			rootLinks := append([]LinkID(nil), prev.Links[:i]...)

			// Exclude links used by previous paths sharing this root, and
			// nodes on the root path (except the spur node) to keep paths
			// loop-free.
			ex := Constraints{
				MinAvailableBw: c.MinAvailableBw,
				ExcludeLinks:   map[LinkID]bool{},
				ExcludeNodes:   map[NodeID]bool{},
			}
			for l := range c.ExcludeLinks {
				ex.ExcludeLinks[l] = true
			}
			for n := range c.ExcludeNodes {
				ex.ExcludeNodes[n] = true
			}
			for _, p := range paths {
				if sharesRoot(g, p, rootLinks) && i < len(p.Links) {
					ex.ExcludeLinks[p.Links[i]] = true
				}
			}
			for _, n := range prevNodes[:i] {
				ex.ExcludeNodes[n] = true
			}

			spurRes := g.CSPF(spurNode, ex)
			spur, ok := spurRes.PathTo(g, dst)
			if !ok {
				continue
			}
			total := Path{Links: append(append([]LinkID(nil), rootLinks...), spur.Links...)}
			if !containsPath(paths, total) && !containsPath(candidates, total) {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.SliceStable(candidates, func(a, b int) bool {
			return candidates[a].Cost(g) < candidates[b].Cost(g)
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}

func sharesRoot(g *Graph, p Path, root []LinkID) bool {
	if len(p.Links) < len(root) {
		return false
	}
	for i, l := range root {
		if p.Links[i] != l {
			return false
		}
	}
	return true
}

func containsPath(ps []Path, q Path) bool {
	for _, p := range ps {
		if len(p.Links) != len(q.Links) {
			continue
		}
		same := true
		for i := range p.Links {
			if p.Links[i] != q.Links[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}
