package topo

import (
	"math"
	"slices"
)

// Unreachable is the distance of a node no path leads to.
const Unreachable = math.MaxInt

// Edge is one directed edge held by an SSSP. In an out-row Node is the
// edge's head, in an in-row its tail.
type Edge struct {
	Node   int
	Metric int
	Link   LinkID
}

// SSSP is one incrementally maintained single-source shortest-path state
// over dense node indices 0..n-1, the engine under both the IGP's routes
// (ospf, nodes are ranks) and the TE trees (IncrementalSPF, nodes are node
// IDs). It owns its adjacency, out and in, and its distance field, and
// repairs them one directed edge at a time with the dynamic-SSSP scheme of
// Ramalingam–Reps: an improved edge relaxes forward from its head (grow); a
// degraded one floods the affected region — the nodes whose distance no
// unaffected in-edge certifies any more — then re-settles that region from
// its boundary (shrink).
//
// Invariant: before every single-edge edit the distances are optimal for the
// held adjacency, and each edit repairs them before it returns, so any
// number of edits may pile up between reads. Every edit also records in
// Touched each node whose parent set may have moved, so a client re-derives
// what it keeps per node (first-hop sets, a tie-broken predecessor) for
// those alone.
//
// Graph.CSPF, a from-scratch search, is the oracle both clients are tested
// against (TestIncrementalSPFMatchesOracleAcrossFlaps;
// TestISPFMatchesFullSPFAcrossFlapSequences against a full-derivation shadow
// domain, and TestIncrementalSPFMatchesIGP between the two clients).
type SSSP struct {
	// Dist is the shortest distance from the source (itself at 0) to every
	// node, Unreachable for those no path leads to. Clients read it only.
	Dist []int
	// Touched lists the nodes whose parents — the in-edges with
	// Dist[tail]+Metric == Dist[v] — may differ from when the client last
	// truncated it: every node after Build, nearest first; afterwards a node
	// whose distance moved, with the heads of its out-edges at that moment,
	// whose parent sets its distance feeds; and the head of an edited edge
	// that entered or left its parent set without moving any distance.
	// Parent sets are a function of the distances and the adjacency, and each
	// is recorded at the moment it changes, so the list is exhaustive however
	// many edits pile up; duplicates are harmless. The client consumes and
	// truncates it.
	Touched []int

	src     int
	out, in [][]Edge
	sc      *SPFScratch
}

// SPFScratch is the working memory of one SSSP operation at a time: nothing
// in it outlives the call that uses it, and marks is all false between
// calls. States that never work at once — a domain's instances — share one.
type SPFScratch struct {
	heap  DistHeap[int]
	marks []bool // shrink: affected
	aff   []int  // shrink: the affected region; Build: in-degrees
}

// NewSSSP returns an empty state that works in sc. Build gives it a graph.
func NewSSSP(sc *SPFScratch) *SSSP { return &SSSP{sc: sc} }

// Build makes out the held out-adjacency (row u lists u's out-edges), derives
// the in-adjacency from it in one slab, and computes Dist from src by heap
// Dijkstra; every node is touched, in increasing distance. The rows are the
// state's from then on: an edge added later is appended to its row, so rows
// cut from one slab should be cut to their length, or the append lands in
// the neighbouring row.
func (s *SSSP) Build(src int, out [][]Edge) {
	n := len(out)
	s.src, s.out = src, out
	sc := s.sc
	if len(sc.marks) < n {
		sc.marks = make([]bool, n)
	}
	deg := slices.Grow(sc.aff[:0], n)[:n]
	clear(deg)
	edges := 0
	for _, row := range out {
		edges += len(row)
		for _, e := range row {
			deg[e.Node]++
		}
	}
	s.in = make([][]Edge, n)
	slab := make([]Edge, edges)
	for v, at := 0, 0; v < n; v++ {
		s.in[v] = slab[at : at : at+deg[v]]
		at += deg[v]
	}
	sc.aff = deg
	for u, row := range out {
		for _, e := range row {
			s.in[e.Node] = append(s.in[e.Node], Edge{Node: u, Metric: e.Metric, Link: e.Link})
		}
	}

	s.Dist = make([]int, n)
	for v := range s.Dist {
		s.Dist[v] = Unreachable
	}
	s.Dist[src] = 0
	sc.heap = append(sc.heap[:0], DistItem[int]{Node: src})
	// Touched in increasing distance: the reachable nodes as they settle,
	// then the rest.
	s.Touched = slices.Grow(s.Touched[:0], n)
	s.settle(nil, func(v int) { s.Touched = append(s.Touched, v) })
	for v, d := range s.Dist {
		if d == Unreachable {
			s.Touched = append(s.Touched, v)
		}
	}
}

// Out returns the held out-edges of u. The caller must not modify them.
func (s *SSSP) Out(u int) []Edge { return s.out[u] }

// Parents calls fn with each of v's parents: its in-edges on a shortest
// path, Dist[e.Node]+e.Metric == Dist[v]. An unreachable node and the source
// have none.
func (s *SSSP) Parents(v int, fn func(e Edge)) {
	if s.Dist[v] == Unreachable || v == s.src {
		return
	}
	for _, e := range s.in[v] {
		if s.onTree(e.Node, e.Metric, v) {
			fn(e)
		}
	}
}

// onTree reports whether an edge from->to at this metric supports a shortest
// path: toggling such an edge moves to's parent set even when no distance
// moves.
func (s *SSSP) onTree(from, metric, to int) bool {
	du := s.Dist[from]
	return du != Unreachable && du+metric == s.Dist[to]
}

// find returns the position of the edge over link in row, or -1.
func find(row []Edge, link LinkID) int {
	for i := range row {
		if row[i].Link == link {
			return i
		}
	}
	return -1
}

// AddEdge holds a new edge from->e.Node and repairs the distances.
func (s *SSSP) AddEdge(from int, e Edge) {
	s.out[from] = append(s.out[from], e)
	s.in[e.Node] = append(s.in[e.Node], Edge{Node: from, Metric: e.Metric, Link: e.Link})
	// An edge landing exactly on the shortest distance widens the parent set
	// without moving any distance; a shorter one is recorded by the grow it
	// triggers.
	if s.onTree(from, e.Metric, e.Node) {
		s.Touched = append(s.Touched, e.Node)
	}
	s.repair(e.Node)
}

// RemoveEdge drops the held edge from from over link, if any, and repairs
// the distances.
func (s *SSSP) RemoveEdge(from int, link LinkID) {
	i := find(s.out[from], link)
	if i < 0 {
		return
	}
	e := s.out[from][i]
	if s.onTree(from, e.Metric, e.Node) {
		s.Touched = append(s.Touched, e.Node) // a parent edge vanished
	}
	s.out[from] = slices.Delete(s.out[from], i, i+1)
	j := find(s.in[e.Node], link)
	s.in[e.Node] = slices.Delete(s.in[e.Node], j, j+1)
	s.repair(e.Node)
}

// SetMetric changes the metric of the held edge from from over link, if any
// and if it differs, and repairs the distances.
func (s *SSSP) SetMetric(from int, link LinkID, metric int) {
	i := find(s.out[from], link)
	if i < 0 || s.out[from][i].Metric == metric {
		return
	}
	e := &s.out[from][i]
	// The edge leaving or joining the parent set moves it; otherwise only a
	// distance the repair moves can.
	if s.onTree(from, e.Metric, e.Node) || s.onTree(from, metric, e.Node) {
		s.Touched = append(s.Touched, e.Node)
	}
	e.Metric = metric
	s.in[e.Node][find(s.in[e.Node], link)].Metric = metric
	s.repair(e.Node)
}

// moved records that v's distance changed.
func (s *SSSP) moved(v int) {
	s.Touched = append(s.Touched, v)
	for _, e := range s.out[v] {
		s.Touched = append(s.Touched, e.Node)
	}
}

// certify returns the best distance v can claim through its in-edges
// (Unreachable if none), skipping tails marked in excl (nil: none).
func (s *SSSP) certify(v int, excl []bool) int {
	best := Unreachable
	for _, e := range s.in[v] {
		if du := s.Dist[e.Node]; du != Unreachable && du+e.Metric < best && (excl == nil || !excl[e.Node]) {
			best = du + e.Metric
		}
	}
	return best
}

// repair restores optimality after one edge into v changed. The source's
// distance is pinned at 0: metrics are positive, so no in-edge moves it.
func (s *SSSP) repair(v int) {
	if v == s.src {
		return
	}
	switch cert := s.certify(v, nil); {
	case cert < s.Dist[v]:
		s.Dist[v] = cert
		s.sc.heap = append(s.sc.heap[:0], DistItem[int]{Node: v, Dist: cert})
		s.settle(nil, s.moved) // grow: only strictly improved nodes re-settle
	case cert > s.Dist[v]:
		s.shrink(v)
	}
}

// settle runs Dijkstra from the frontier in the scratch heap, skipping
// entries a shorter one superseded, and calls record (if set) with each node
// as it settles. A head outside region (nil: every node) is never improved.
func (s *SSSP) settle(region []bool, record func(v int)) {
	h := &s.sc.heap
	for len(*h) > 0 {
		it := h.Pop()
		if it.Dist > s.Dist[it.Node] {
			continue
		}
		if record != nil {
			record(it.Node)
		}
		for _, e := range s.out[it.Node] {
			if region != nil && !region[e.Node] {
				continue
			}
			if nd := it.Dist + e.Metric; nd < s.Dist[e.Node] {
				s.Dist[e.Node] = nd
				h.Push(DistItem[int]{Node: e.Node, Dist: nd})
			}
		}
	}
}

// shrink handles a degradation at v: flood the affected region, reset it,
// seed each member from its best unaffected in-edge, and re-settle the
// region alone — a degradation improves nobody, so distances outside it are
// already optimal.
func (s *SSSP) shrink(v int) {
	affected := s.sc.marks
	aff := append(s.sc.aff[:0], v)
	affected[v] = true
	for i := 0; i < len(aff); i++ {
		u := aff[i]
		du := s.Dist[u]
		for _, e := range s.out[u] {
			w := e.Node
			if w == s.src || affected[w] || du+e.Metric != s.Dist[w] {
				continue // u never supported w's distance
			}
			if s.certify(w, affected) == s.Dist[w] {
				continue // an unaffected in-edge still certifies w
			}
			affected[w] = true
			aff = append(aff, w)
		}
	}
	for _, u := range aff {
		s.moved(u) // strictly degrades, or becomes unreachable
		s.Dist[u] = Unreachable
	}
	h := &s.sc.heap
	*h = (*h)[:0]
	for _, u := range aff {
		// With the region reset, certify sees only the unaffected boundary.
		if cert := s.certify(u, nil); cert != Unreachable {
			s.Dist[u] = cert
			h.Push(DistItem[int]{Node: u, Dist: cert})
		}
	}
	s.settle(affected, nil)
	for _, u := range aff {
		affected[u] = false
	}
	s.sc.aff = aff
}
