// Incremental SPF (ISPF). A full SPF run rebuilds the believed topology
// from the LSDB and re-runs Dijkstra from scratch on every event; at
// backbone scale that cost, multiplied by every router in the domain, is
// what makes single-link flaps expensive. ISPF instead keeps three pieces
// of derived state alive per instance — the bidirectionally-checked
// adjacency, its reverse index, and the distance field — and repairs them
// edge by edge as LSAs are installed (Ramalingam–Reps dynamic SSSP: an
// improved edge relaxes forward from its head; a degraded edge floods the
// affected region, then re-settles it from its boundary). Each repair
// records the nodes it touched, and routes are then re-derived for those
// alone and, in increasing-distance order, for the shortest-path-DAG
// descendants whose first-hop set actually moved: a node's ECMP parents are
// exactly its in-edges satisfying dist[u] + metric == dist[v], which is
// also exactly the parent set the full Dijkstra collects, so ISPF routes
// are identical to full-SPF routes (ispf_test.go proves this, and that the
// changed-destination ledger equals the full derivation's diff, against a
// shadow domain across random flap sequences).
//
// ISPF state is derived, never serialized: snapshot restore drops it and
// the next recompute falls back to a full SPF, which rebuilds it.
package ospf

import (
	"math"
	"slices"

	"mplsvpn/internal/topo"
)

// iedge is one directed edge of the believed topology (out-direction);
// nodes are ranks.
type iedge struct {
	to     int
	metric int
	link   topo.LinkID
}

// redge is the reverse-index twin of iedge.
type redge struct {
	from   int
	metric int
	link   topo.LinkID
}

// unreachable is the distance of a node no path leads to.
const unreachable = math.MaxInt

// ispfState is the incrementally-maintained SPF state of one instance, every
// slice indexed by rank.
type ispfState struct {
	adj  [][]iedge
	radj [][]redge
	// dist holds the shortest distance from the instance's node (itself at
	// 0) to every node, unreachable for those no path leads to.
	dist []int
	// touched lists the nodes whose route may differ from the last
	// derivation other than through a parent's first hops (which deriveRoutes
	// follows by itself): a node whose distance moved, with the heads of its
	// out-edges at that moment, whose parent sets its distance feeds
	// (moved); and the head of an edited edge that entered or left the ECMP
	// parent set (dist[u]+metric == dist[v]) without moving any distance.
	// Parent sets are a function of (dist, adjacency), and each of the two
	// is recorded at the moment it changes, so the list is exhaustive
	// however many repairs pile up between derivations; duplicates are
	// harmless. Edge edits that touch neither leave it empty, and an
	// instance with nothing touched skips route derivation entirely — that
	// skip, not the distance repair, is where most of the incremental win
	// comes from on single-link events.
	touched []int
	sc      *scratch
}

// scratch is the working memory of a domain's computations, one at a time:
// nothing in it outlives the call that uses it, and marks is all false
// between calls.
type scratch struct {
	heap       distHeap
	marks      []bool          // deriveRoutes: queued; shrink: affected
	hops       [][]topo.LinkID // full SPF: first-hop set per destination
	rowA, rowB []iedge         // install: the origin's old and new rows
}

// moved records that v's distance changed.
func (st *ispfState) moved(v int) {
	st.touched = append(st.touched, v)
	for _, e := range st.adj[v] {
		st.touched = append(st.touched, e.to)
	}
}

// advertises reports whether an LSA with these links lists n as a neighbor.
func advertises(links []LSALink, n topo.NodeID) bool {
	for _, l := range links {
		if l.Neighbor == n {
			return true
		}
	}
	return false
}

// believed appends to row the out-edges of lsa's origin as the instance
// believes them: those to a neighbour whose own LSA advertises the origin
// back (the bidirectional check).
func (d *Domain) believed(in *Instance, row []iedge, lsa *LSA) []iedge {
	for _, l := range lsa.Links {
		if to := d.idx.Of(l.Neighbor); to >= 0 && advertises(in.lsdb[to].Links, lsa.Origin) {
			row = append(row, iedge{to: to, metric: l.Metric, link: l.LinkID})
		}
	}
	return row
}

// findEdge returns the position of the edge over link in row, or -1.
func findEdge(row []iedge, link topo.LinkID) int {
	for i := range row {
		if row[i].link == link {
			return i
		}
	}
	return -1
}

// install replaces origin's LSA in the instance's database. When ISPF
// state is live, the believed-topology deltas are folded in one directed
// edge at a time, repairing the distance field between edges — the
// dynamic-SSSP invariant (distances optimal for the current adjacency)
// must hold before each single-edge update.
func (d *Domain) install(in *Instance, lsa LSA) {
	o := d.idx.Of(lsa.Origin)
	old := in.lsdb[o]
	in.lsdb[o] = lsa
	st := in.ispf
	if st == nil {
		return
	}
	src := d.idx.Of(in.Node)

	// Out-edges of the origin under the bidirectional check, from the new
	// LSA against the (already updated) database, diffed by link against a
	// copy of the old row: removeEdge below edits the live one in place.
	outNew := d.believed(in, d.rowA[:0], &lsa)
	outOld := append(d.rowB[:0], st.adj[o]...)
	d.rowA, d.rowB = outNew, outOld
	for _, e := range outOld {
		if findEdge(outNew, e.link) < 0 {
			st.removeEdge(o, e.to, e.link)
			st.repair(src, e.to)
		}
	}
	for _, e := range outNew {
		switch i := findEdge(outOld, e.link); {
		case i < 0:
			st.addEdge(o, e)
			st.repair(src, e.to)
		case outOld[i].metric != e.metric:
			st.setMetric(o, e.to, e.link, e.metric)
			st.repair(src, e.to)
		}
	}

	// Reverse edges N->origin appear or vanish when the origin's
	// advertisement of N toggles (their own metric/link live in N's LSA,
	// which did not change here). Each neighbour lost or gained is visited
	// once, at its first link in the LSA that names it.
	flip := func(was, is *LSA, up bool) {
		for i, l := range was.Links {
			n := d.idx.Of(l.Neighbor)
			if n < 0 || advertises(is.Links, l.Neighbor) || advertises(was.Links[:i], l.Neighbor) {
				continue
			}
			for _, bl := range in.lsdb[n].Links {
				if bl.Neighbor != lsa.Origin {
					continue
				}
				if up {
					st.addEdge(n, iedge{to: o, metric: bl.Metric, link: bl.LinkID})
				} else {
					st.removeEdge(n, o, bl.LinkID)
				}
				st.repair(src, o)
			}
		}
	}
	flip(&old, &lsa, false)
	flip(&lsa, &old, true)
}

// onTree reports whether the edge from->to at the given metric supports a
// shortest path, i.e. dist[from] + metric == dist[to]. Such edges are
// exactly the ECMP parent edges deriveRoutes collects, so toggling one
// changes routes even when no distance moves.
func (st *ispfState) onTree(from, to, metric int) bool {
	du := st.dist[from]
	return du != unreachable && du+metric == st.dist[to]
}

func (st *ispfState) addEdge(from int, e iedge) {
	st.adj[from] = append(st.adj[from], e)
	st.radj[e.to] = append(st.radj[e.to], redge{from: from, metric: e.metric, link: e.link})
	// A new edge landing exactly on the shortest distance widens the ECMP
	// parent set without moving any distance; a shorter one is recorded by
	// the grow it triggers in the repair that follows.
	if st.onTree(from, e.to, e.metric) {
		st.touched = append(st.touched, e.to)
	}
}

func (st *ispfState) removeEdge(from, to int, link topo.LinkID) {
	row := st.adj[from]
	if i := findEdge(row, link); i >= 0 {
		if st.onTree(from, to, row[i].metric) {
			st.touched = append(st.touched, to) // a parent edge vanished
		}
		st.adj[from] = append(row[:i], row[i+1:]...)
	}
	rrow := st.radj[to]
	for i, e := range rrow {
		if e.link == link {
			st.radj[to] = append(rrow[:i], rrow[i+1:]...)
			break
		}
	}
}

func (st *ispfState) setMetric(from, to int, link topo.LinkID, metric int) {
	if i := findEdge(st.adj[from], link); i >= 0 {
		// Routes change if the edge leaves or joins the parent set;
		// otherwise only a repair-driven distance move can touch them.
		if st.onTree(from, to, st.adj[from][i].metric) || st.onTree(from, to, metric) {
			st.touched = append(st.touched, to)
		}
		st.adj[from][i].metric = metric
	}
	for i := range st.radj[to] {
		if st.radj[to][i].link == link {
			st.radj[to][i].metric = metric
			break
		}
	}
}

// certify returns the best distance v can claim through its in-edges
// (unreachable if none), skipping sources marked in excl (nil = none).
func (st *ispfState) certify(v int, excl []bool) int {
	best := unreachable
	for _, e := range st.radj[v] {
		if du := st.dist[e.from]; du != unreachable && du+e.metric < best && (excl == nil || !excl[e.from]) {
			best = du + e.metric
		}
	}
	return best
}

// repair restores distance optimality after one directed edge into v
// changed. src is the instance's own node, whose distance is pinned at 0.
func (st *ispfState) repair(src, v int) {
	if v == src {
		return
	}
	switch cert := st.certify(v, nil); {
	case cert < st.dist[v]:
		st.grow(v, cert)
	case cert > st.dist[v]:
		st.shrink(src, v)
	}
}

type (
	distItem = topo.DistItem[int]
	distHeap = topo.DistHeap[int]
)

// grow propagates an improvement at v forward; only strictly-improved
// nodes are re-settled.
func (st *ispfState) grow(v int, dist int) {
	st.dist[v] = dist
	st.moved(v)
	h := &st.sc.heap
	*h = append((*h)[:0], distItem{Node: v, Dist: dist})
	for len(*h) > 0 {
		it := h.Pop()
		if it.Dist > st.dist[it.Node] {
			continue
		}
		for _, e := range st.adj[it.Node] {
			if nd := it.Dist + e.metric; nd < st.dist[e.to] {
				st.dist[e.to] = nd
				st.moved(e.to)
				h.Push(distItem{Node: e.to, Dist: nd})
			}
		}
	}
}

// shrink handles a degradation at v: flood the affected region (nodes
// whose distance no longer has an unaffected certificate), reset it, seed
// each member from the unaffected boundary, and re-settle the region.
func (st *ispfState) shrink(src, v int) {
	aff := []int{v}
	affected := st.sc.marks
	affected[v] = true
	for i := 0; i < len(aff); i++ {
		u := aff[i]
		du := st.dist[u]
		for _, e := range st.adj[u] {
			w := e.to
			if w == src || affected[w] {
				continue
			}
			dw := st.dist[w]
			if du+e.metric != dw {
				continue // u never supported w's distance
			}
			if st.certify(w, affected) == dw {
				continue // an unaffected in-edge still certifies w
			}
			affected[w] = true
			aff = append(aff, w)
		}
	}
	for _, u := range aff {
		st.moved(u) // strictly degrades, or becomes unreachable
		st.dist[u] = unreachable
	}
	h := &st.sc.heap
	*h = (*h)[:0]
	for _, u := range aff {
		// With the region's distances reset, certify sees only the
		// unaffected boundary.
		if cert := st.certify(u, nil); cert != unreachable {
			st.dist[u] = cert
			h.Push(distItem{Node: u, Dist: cert})
		}
	}
	for len(*h) > 0 {
		it := h.Pop()
		if it.Dist > st.dist[it.Node] {
			continue
		}
		for _, e := range st.adj[it.Node] {
			if !affected[e.to] {
				continue // boundary distances are already optimal
			}
			if nd := it.Dist + e.metric; nd < st.dist[e.to] {
				st.dist[e.to] = nd
				h.Push(distItem{Node: e.to, Dist: nd})
			}
		}
	}
	for _, u := range aff {
		affected[u] = false
	}
}

// deriveRoutes brings the instance's routing table in line with the live
// ISPF state, re-deriving only what the repairs since the last derivation
// can have changed. The ECMP parents of a node are its in-edges achieving
// equality with its distance — the same set a full Dijkstra collects — and
// its first hops are the union of its parents' (a parent that is the source
// contributes the connecting link), so the table equals full SPF's. The
// walk starts from the touched nodes and visits nodes nearest first, so
// every parent is final before its children read it; a node whose route comes out as it was stops the walk there, one
// whose route moved is written in place, entered in the changed set for
// delta-based propagation into the routers' IP tables, and hands the walk
// to its children on the shortest-path DAG.
func (d *Domain) deriveRoutes(in *Instance) {
	d.ISPFRuns++
	st := in.ispf
	src := d.idx.Of(in.Node)
	h, queued := &d.heap, d.marks
	*h = (*h)[:0]
	push := func(v int) {
		if v == src || queued[v] {
			return
		}
		queued[v] = true
		dv := st.dist[v]
		if dv == unreachable {
			dv = -1 // depends on nobody, goes first
		}
		h.Push(distItem{Node: v, Dist: dv})
	}
	for _, v := range st.touched {
		push(v)
	}
	st.touched = st.touched[:0]

	for len(*h) > 0 {
		v := h.Pop().Node
		queued[v] = false
		dv := st.dist[v]
		// First-hop sets are shared by aliasing: a single-parent node (the
		// common case) points at its parent's slice, and only genuine ECMP
		// joins allocate a merged copy. Slices stay sorted, so NextHop (the
		// lowest link) and table comparisons are deterministic.
		var next Route
		if dv != unreachable {
			var hops []topo.LinkID
			for _, e := range st.radj[v] {
				switch {
				case !st.onTree(e.from, v, e.metric): // not a shortest-path in-edge
				case e.from == src:
					hops = mergeHops(hops, []topo.LinkID{e.link})
				default:
					hops = mergeHops(hops, in.routes[e.from].NextHops)
				}
			}
			if len(hops) > 0 {
				next = Route{Dest: d.idx.Nodes[v], NextHop: hops[0], NextHops: hops, Metric: dv}
			}
		}
		if sameRoute(in.routes[v], next) {
			continue
		}
		in.routes[v], in.changed[v] = next, true
		if dv == unreachable {
			continue
		}
		for _, e := range st.adj[v] {
			if dv+e.metric == st.dist[e.to] {
				push(e.to)
			}
		}
	}
}

// mergeHops unions two sorted link-ID sets. When one side already contains
// the other it is returned as-is (no allocation), which lets chains of
// single-parent nodes share one slice; callers must treat results as
// immutable.
func mergeHops(a, b []topo.LinkID) []topo.LinkID {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	// Containment fast paths via one two-pointer scan each way.
	if hopsContain(a, b) {
		return a
	}
	if hopsContain(b, a) {
		return b
	}
	out := make([]topo.LinkID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// hopsContain reports whether sorted set a contains every element of
// sorted set b.
func hopsContain(a, b []topo.LinkID) bool {
	if len(b) > len(a) {
		return false
	}
	i := 0
	for _, x := range b {
		for i < len(a) && a[i] < x {
			i++
		}
		if i == len(a) || a[i] != x {
			return false
		}
		i++
	}
	return true
}

// sameRoute reports whether two routes, or two absences of one, are equal.
func sameRoute(a, b Route) bool {
	return a.Dest == b.Dest && a.NextHop == b.NextHop && a.Metric == b.Metric && slices.Equal(a.NextHops, b.NextHops)
}

// TakeChangedDests returns the destinations whose route changed since the
// last call (sorted) and resets the set. The core's reconvergence path
// uses this for delta-based propagation into the routers' IP tables.
func (in *Instance) TakeChangedDests() []topo.NodeID {
	var out []topo.NodeID
	for v, c := range in.changed {
		if c {
			out = append(out, in.idx.Nodes[v])
			in.changed[v] = false
		}
	}
	return out
}
