package topo

// IncrementalSPF maintains a CSPF result across single-link events without
// recomputing the whole tree. It is a client of SSSP: it holds the links
// CSPF would see as the engine's adjacency, feeds it the difference a link
// event makes, and keeps Prev for the nodes the repair touched.
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
	sp  *SSSP
	sc  SPFScratch

	// links and nodes are the graph's size at the last (re)build: the tree
	// is current for that much of it.
	links, nodes int

	// FullRuns counts from-scratch recomputes (construction, Rebuild, and
	// topology-growth fallbacks); IncrementalRuns counts delta updates.
	FullRuns        int
	IncrementalRuns int
}

// NewIncrementalSPF computes the initial tree with a full search.
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
	n := s.g.span(s.src, s.c)
	out := make([][]Edge, n)
	edges := 0
	for u := range out {
		for _, lid := range s.g.OutLinks(NodeID(u)) {
			if s.eligible(lid, s.g.Link(lid)) {
				edges++
			}
		}
	}
	// One slab, each row cut to its length (SSSP.Build).
	slab := make([]Edge, 0, edges)
	for u := range out {
		at := len(slab)
		for _, lid := range s.g.OutLinks(NodeID(u)) {
			if l := s.g.Link(lid); s.eligible(lid, l) {
				slab = append(slab, Edge{Node: int(l.To), Metric: l.Metric, Link: lid})
			}
		}
		out[u] = slab[at:len(slab):len(slab)]
	}
	s.sp = NewSSSP(&s.sc)
	s.sp.Build(int(s.src), out)
	s.res = &SPFResult{Source: s.src, Dist: s.sp.Dist, Prev: make([]LinkID, n)}
	s.refresh()
	s.links, s.nodes = s.g.NumLinks(), s.g.NumNodes()
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
// when excluded, as in CSPF). The eligible links are the engine's adjacency.
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

// ApplyLinkChange folds one directed link's state change (Down flag,
// metric, or bandwidth eligibility) into the tree. Both halves of a duplex
// flap need their own call. Safe to call when nothing actually changed.
func (s *IncrementalSPF) ApplyLinkChange(lid LinkID) {
	if !s.current() {
		// The graph grew since the last build; the tree is stale.
		s.Rebuild()
		return
	}
	l := s.g.Link(lid)
	if l.To != s.src && s.c.within(l.To) {
		s.IncrementalRuns++
	}
	if !s.c.within(l.From) {
		return // never held: the tree does not span its tail
	}
	u := int(l.From)
	ok, held := s.eligible(lid, l), find(s.sp.Out(u), lid) >= 0
	switch {
	case held && !ok:
		s.sp.RemoveEdge(u, lid)
	case !held && ok:
		s.sp.AddEdge(u, Edge{Node: int(l.To), Metric: l.Metric, Link: lid})
	case held:
		s.sp.SetMetric(u, lid, l.Metric)
	}
	s.refresh()
}

// refresh sets Prev — the lowest-ID parent link, CSPF's tie-break — of every
// node the engine touched, and empties its ledger.
func (s *IncrementalSPF) refresh() {
	for _, v := range s.sp.Touched {
		best := LinkID(-1)
		s.sp.Parents(v, func(e Edge) {
			if best < 0 || e.Link < best {
				best = e.Link
			}
		})
		s.res.Prev[v] = best
	}
	s.sp.Touched = s.sp.Touched[:0]
}
