package topo

import "math"

// IncrementalSPF maintains a CSPF result across single-link events without
// recomputing the whole tree. It implements the dynamic-SSSP scheme of
// Ramalingam–Reps: an improved edge triggers a bounded Dijkstra forward
// from its head, a worsened edge first identifies the affected region
// (nodes whose distance can no longer be certified by an unaffected
// in-edge) and then re-settles only that region from its boundary.
//
// The maintained result is canonical: after every ApplyLinkChange, Dist and
// Prev are exactly what Graph.CSPF would compute from scratch on the
// current graph — including the lowest-link-ID tie-break among equal-cost
// in-edges — so callers can swap between the two freely. The property tests
// in ispf_test.go enforce this equivalence across random flap sequences.
//
// The caller owns change notification: after mutating a link's Down flag,
// Metric, or reservation state (when MinAvailableBw constraints apply),
// call ApplyLinkChange with the affected directed link. Changes the
// tracker is not told about leave it stale until Rebuild.
type IncrementalSPF struct {
	g   *Graph
	src NodeID
	c   Constraints
	res *SPFResult

	// links and nodes are the graph's size at the last (re)build: the tree
	// is current for that much of it.
	links, nodes int

	// FullRuns counts from-scratch recomputes (construction, Rebuild, and
	// topology-growth fallbacks); IncrementalRuns counts delta updates.
	FullRuns        int
	IncrementalRuns int

	// affected marks the shrink-phase region; cleared after each update.
	affected []bool
}

// NewIncrementalSPF computes the initial tree with a full CSPF run.
func NewIncrementalSPF(g *Graph, src NodeID, c Constraints) *IncrementalSPF {
	s := &IncrementalSPF{g: g, src: src, c: c}
	s.Rebuild()
	return s
}

// Result returns the live tree. The caller must not mutate it; it is
// updated in place by ApplyLinkChange and replaced by Rebuild.
func (s *IncrementalSPF) Result() *SPFResult { return s.res }

// Rebuild recomputes the tree from scratch — the fallback for events wider
// than a single link (node crashes, bulk reservation shifts, graph growth).
func (s *IncrementalSPF) Rebuild() {
	s.res = s.g.CSPF(s.src, s.c)
	s.links, s.nodes = s.g.NumLinks(), s.g.NumNodes()
	s.affected = make([]bool, len(s.res.Dist))
	s.FullRuns++
}

// current reports whether the tree still spans the graph. Links added since
// the last build with an end outside the node scope are not part of this
// tree's world and are stepped over; any other growth is stale state.
func (s *IncrementalSPF) current() bool {
	if s.c.Within == nil && s.g.NumNodes() != s.nodes {
		return false
	}
	for ; s.links < s.g.NumLinks(); s.links++ {
		if l := s.g.Link(LinkID(s.links)); s.c.within(l.From) && s.c.within(l.To) {
			return false
		}
	}
	return true
}

// eligible mirrors CSPF's link pruning: down links, excluded links, links
// with an end outside the node scope, bandwidth-starved links, and links
// leaving an excluded transit node are invisible (the source relaxes even
// when excluded, as in CSPF).
func (s *IncrementalSPF) eligible(lid LinkID, l *Link) bool {
	if l.Down || s.c.ExcludeLinks[lid] || !s.c.within(l.To) || !s.c.within(l.From) {
		return false
	}
	if s.c.MinAvailableBw > 0 && l.AvailableBw() < s.c.MinAvailableBw {
		return false
	}
	if s.c.ExcludeNodes[l.From] && l.From != s.src {
		return false
	}
	return true
}

// certify returns the best distance v can claim through its current
// in-edges, and the lowest link ID achieving it — the canonical Prev.
func (s *IncrementalSPF) certify(v NodeID) (int, LinkID) {
	best, bestLid := math.MaxInt, LinkID(-1)
	for _, lid := range s.g.InLinks(v) {
		l := s.g.Link(lid)
		if !s.eligible(lid, l) {
			continue
		}
		du := s.res.Dist[l.From]
		if du == math.MaxInt {
			continue
		}
		nd := du + l.Metric
		if nd < best || (nd == best && lid < bestLid) {
			best, bestLid = nd, lid
		}
	}
	return best, bestLid
}

// ApplyLinkChange folds one directed link's state change (Down flag,
// metric, or bandwidth eligibility) into the tree. Both halves of a duplex
// flap need their own call. Safe to call when nothing actually changed.
func (s *IncrementalSPF) ApplyLinkChange(lid LinkID) {
	if !s.current() {
		// The graph grew since the last build; the tree is stale.
		s.Rebuild()
		return
	}
	v := s.g.Link(lid).To
	if v == s.src || !s.c.within(v) {
		// Dist[src] is pinned at 0 and Prev[src] at -1; an in-edge to the
		// source never changes the tree (metrics are strictly positive). Nor
		// does a link into a node the tree does not span.
		return
	}
	s.IncrementalRuns++
	cert, certLid := s.certify(v)
	switch {
	case cert == s.res.Dist[v]:
		// Distance unchanged; only the tie-break may have moved.
		s.res.Prev[v] = certLid
	case cert < s.res.Dist[v]:
		s.grow(v, cert, certLid)
	default:
		s.shrink(v)
	}
}

// grow handles an improvement at v: bounded Dijkstra forward. Only nodes
// whose distance strictly improves are re-settled; unchanged neighbors of
// improved nodes get their Prev tie-break refreshed in place, because an
// improved in-neighbor can create a new equal-cost in-edge with a lower
// link ID (old optimality guarantees it can never destroy one).
func (s *IncrementalSPF) grow(v NodeID, dist int, via LinkID) {
	res := s.res
	res.Dist[v], res.Prev[v] = dist, via
	h := spfHeap{{Node: v, Dist: dist}}
	for len(h) > 0 {
		it := h.Pop()
		u := it.Node
		if it.Dist > res.Dist[u] {
			continue // superseded by a later improvement
		}
		if s.c.ExcludeNodes[u] && u != s.src {
			continue
		}
		for _, olid := range s.g.OutLinks(u) {
			l := s.g.Link(olid)
			if !s.eligible(olid, l) {
				continue
			}
			w := l.To
			if w == s.src {
				continue
			}
			nd := res.Dist[u] + l.Metric
			if nd < res.Dist[w] {
				res.Dist[w], res.Prev[w] = nd, olid
				h.Push(spfItem{Node: w, Dist: nd})
			} else if nd == res.Dist[w] && olid < res.Prev[w] {
				res.Prev[w] = olid
			}
		}
	}
}

// shrink handles a degradation at v. Phase 1 floods the affected region:
// a node joins when every in-edge that certified its distance comes from a
// node already in the region. Nodes that keep an unaffected certificate
// only refresh their Prev tie-break. Phase 2 resets the region to
// unreachable, seeds each member with its best boundary in-edge, and runs
// Dijkstra restricted to the region — unaffected distances are already
// optimal (a degradation never improves anyone) and stay untouched.
func (s *IncrementalSPF) shrink(v NodeID) {
	res := s.res
	aff := []NodeID{v}
	s.affected[v] = true
	for i := 0; i < len(aff); i++ {
		u := aff[i]
		if s.c.ExcludeNodes[u] && u != s.src {
			continue
		}
		for _, olid := range s.g.OutLinks(u) {
			l := s.g.Link(olid)
			if !s.eligible(olid, l) {
				continue
			}
			w := l.To
			if w == s.src || s.affected[w] || res.Dist[w] == math.MaxInt {
				continue
			}
			if res.Dist[u]+l.Metric != res.Dist[w] {
				continue // u never supported w's distance
			}
			cert, certLid := s.certifyUnaffected(w)
			if cert == res.Dist[w] {
				res.Prev[w] = certLid
			} else {
				s.affected[w] = true
				aff = append(aff, w)
			}
		}
	}

	var h spfHeap
	for _, u := range aff {
		res.Dist[u], res.Prev[u] = math.MaxInt, -1
	}
	for _, u := range aff {
		// certify sees affected sources as unreachable now, so this is the
		// best boundary (unaffected) in-edge.
		cert, certLid := s.certify(u)
		if cert < math.MaxInt {
			res.Dist[u], res.Prev[u] = cert, certLid
			h.Push(spfItem{Node: u, Dist: cert})
		}
	}
	for len(h) > 0 {
		it := h.Pop()
		u := it.Node
		if it.Dist > res.Dist[u] {
			continue
		}
		if s.c.ExcludeNodes[u] && u != s.src {
			continue
		}
		for _, olid := range s.g.OutLinks(u) {
			l := s.g.Link(olid)
			if !s.eligible(olid, l) {
				continue
			}
			w := l.To
			if !s.affected[w] {
				continue // boundary distances are already optimal
			}
			nd := res.Dist[u] + l.Metric
			if nd < res.Dist[w] {
				res.Dist[w], res.Prev[w] = nd, olid
				h.Push(spfItem{Node: w, Dist: nd})
			} else if nd == res.Dist[w] && olid < res.Prev[w] {
				res.Prev[w] = olid
			}
		}
	}
	for _, u := range aff {
		s.affected[u] = false
	}
}

// certifyUnaffected is certify restricted to sources outside the affected
// region being flooded in shrink's first phase.
func (s *IncrementalSPF) certifyUnaffected(v NodeID) (int, LinkID) {
	best, bestLid := math.MaxInt, LinkID(-1)
	for _, lid := range s.g.InLinks(v) {
		l := s.g.Link(lid)
		if !s.eligible(lid, l) || s.affected[l.From] {
			continue
		}
		du := s.res.Dist[l.From]
		if du == math.MaxInt {
			continue
		}
		nd := du + l.Metric
		if nd < best || (nd == best && lid < bestLid) {
			best, bestLid = nd, lid
		}
	}
	return best, bestLid
}
