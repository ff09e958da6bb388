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
	"container/heap"
	"sort"

	"mplsvpn/internal/topo"
)

// iedge is one directed edge of the believed topology (out-direction).
type iedge struct {
	to     topo.NodeID
	metric int
	link   topo.LinkID
}

// redge is the reverse-index twin of iedge.
type redge struct {
	from   topo.NodeID
	metric int
	link   topo.LinkID
}

// ispfState is the incrementally-maintained SPF state of one instance.
type ispfState struct {
	adj  map[topo.NodeID][]iedge
	radj map[topo.NodeID][]redge
	// dist holds the shortest distance from the instance's node to every
	// reachable node (the node itself at 0); unreachable nodes are absent.
	dist map[topo.NodeID]int
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
	touched []topo.NodeID
}

// moved records that v's distance changed.
func (st *ispfState) moved(v topo.NodeID) {
	st.touched = append(st.touched, v)
	for _, e := range st.adj[v] {
		st.touched = append(st.touched, e.to)
	}
}

// advertises reports whether the LSA lists n as a neighbor.
func advertises(lsa LSA, n topo.NodeID) bool {
	for _, l := range lsa.Links {
		if l.Neighbor == n {
			return true
		}
	}
	return false
}

// install replaces origin's LSA in the instance's database. When ISPF
// state is live, the believed-topology deltas are folded in one directed
// edge at a time, repairing the distance field between edges — the
// dynamic-SSSP invariant (distances optimal for the current adjacency)
// must hold before each single-edge update.
func (d *Domain) install(in *Instance, lsa LSA) {
	old := in.lsdb[lsa.Origin]
	in.lsdb[lsa.Origin] = lsa
	st := in.ispf
	if st == nil {
		return
	}

	// Out-edges of the origin under the bidirectional check, from the new
	// LSA against the (already updated) database.
	var outNew []iedge
	for _, l := range lsa.Links {
		if advertises(in.lsdb[l.Neighbor], lsa.Origin) {
			outNew = append(outNew, iedge{to: l.Neighbor, metric: l.Metric, link: l.LinkID})
		}
	}
	// Copy the old row: removeEdge below mutates the live slice in place.
	outOld := append([]iedge(nil), st.adj[lsa.Origin]...)
	newBy := make(map[topo.LinkID]iedge, len(outNew))
	for _, e := range outNew {
		newBy[e.link] = e
	}
	oldBy := make(map[topo.LinkID]iedge, len(outOld))
	for _, e := range outOld {
		oldBy[e.link] = e
	}
	for _, e := range outOld {
		if _, keep := newBy[e.link]; !keep {
			st.removeEdge(lsa.Origin, e.to, e.link)
			st.repair(in.Node, e.to)
		}
	}
	for _, e := range outNew {
		o, had := oldBy[e.link]
		switch {
		case !had:
			st.addEdge(lsa.Origin, e)
			st.repair(in.Node, e.to)
		case o.metric != e.metric:
			st.setMetric(lsa.Origin, e.to, e.link, e.metric)
			st.repair(in.Node, e.to)
		}
	}

	// Reverse edges N->origin appear or vanish when the origin's
	// advertisement of N toggles (their own metric/link live in N's LSA,
	// which did not change here).
	oldAdv := neighborSet(old)
	newAdv := neighborSet(lsa)
	flip := func(n topo.NodeID, up bool) {
		nb, ok := in.lsdb[n]
		if !ok {
			return
		}
		for _, bl := range nb.Links {
			if bl.Neighbor != lsa.Origin {
				continue
			}
			if up {
				st.addEdge(n, iedge{to: lsa.Origin, metric: bl.Metric, link: bl.LinkID})
			} else {
				st.removeEdge(n, lsa.Origin, bl.LinkID)
			}
			st.repair(in.Node, lsa.Origin)
		}
	}
	for _, l := range old.Links {
		if oldAdv[l.Neighbor] && !newAdv[l.Neighbor] {
			oldAdv[l.Neighbor] = false // visit each lost neighbor once
			flip(l.Neighbor, false)
		}
	}
	for _, l := range lsa.Links {
		if newAdv[l.Neighbor] && !oldAdv[l.Neighbor] {
			newAdv[l.Neighbor] = false // visit each gained neighbor once
			flip(l.Neighbor, true)
		}
	}
}

func neighborSet(lsa LSA) map[topo.NodeID]bool {
	s := make(map[topo.NodeID]bool, len(lsa.Links))
	for _, l := range lsa.Links {
		s[l.Neighbor] = true
	}
	return s
}

// onTree reports whether the edge from->to at the given metric supports a
// shortest path, i.e. dist[from] + metric == dist[to]. Such edges are
// exactly the ECMP parent edges deriveRoutes collects, so toggling one
// changes routes even when no distance moves.
func (st *ispfState) onTree(from, to topo.NodeID, metric int) bool {
	du, ok := st.dist[from]
	if !ok {
		return false
	}
	dv, ok := st.dist[to]
	return ok && du+metric == dv
}

func (st *ispfState) addEdge(from topo.NodeID, e iedge) {
	st.adj[from] = append(st.adj[from], e)
	st.radj[e.to] = append(st.radj[e.to], redge{from: from, metric: e.metric, link: e.link})
	// A new edge landing exactly on the shortest distance widens the ECMP
	// parent set without moving any distance; a shorter one is recorded by
	// the grow it triggers in the repair that follows.
	if st.onTree(from, e.to, e.metric) {
		st.touched = append(st.touched, e.to)
	}
}

func (st *ispfState) removeEdge(from, to topo.NodeID, link topo.LinkID) {
	row := st.adj[from]
	for i, e := range row {
		if e.link == link {
			if st.onTree(from, to, e.metric) {
				st.touched = append(st.touched, to) // a parent edge vanished
			}
			st.adj[from] = append(row[:i], row[i+1:]...)
			break
		}
	}
	rrow := st.radj[to]
	for i, e := range rrow {
		if e.link == link {
			st.radj[to] = append(rrow[:i], rrow[i+1:]...)
			break
		}
	}
}

func (st *ispfState) setMetric(from, to topo.NodeID, link topo.LinkID, metric int) {
	for i := range st.adj[from] {
		if st.adj[from][i].link == link {
			// Routes change if the edge leaves or joins the parent set;
			// otherwise only a repair-driven distance move can touch them.
			if st.onTree(from, to, st.adj[from][i].metric) || st.onTree(from, to, metric) {
				st.touched = append(st.touched, to)
			}
			st.adj[from][i].metric = metric
			break
		}
	}
	for i := range st.radj[to] {
		if st.radj[to][i].link == link {
			st.radj[to][i].metric = metric
			break
		}
	}
}

// certify returns the best distance v can claim through its in-edges,
// skipping sources in the excluded set (nil = none).
func (st *ispfState) certify(v topo.NodeID, excl map[topo.NodeID]bool) (int, bool) {
	best, ok := 0, false
	for _, e := range st.radj[v] {
		if excl[e.from] {
			continue
		}
		du, reach := st.dist[e.from]
		if !reach {
			continue
		}
		if nd := du + e.metric; !ok || nd < best {
			best, ok = nd, true
		}
	}
	return best, ok
}

// repair restores distance optimality after one directed edge into v
// changed. src is the instance's own node, whose distance is pinned at 0.
func (st *ispfState) repair(src, v topo.NodeID) {
	if v == src {
		return
	}
	cert, reach := st.certify(v, nil)
	cur, have := st.dist[v]
	switch {
	case !reach && !have:
	case reach && have && cert == cur:
	case reach && (!have || cert < cur):
		st.grow(v, cert)
	default:
		st.shrink(src, v)
	}
}

type distItem struct {
	node topo.NodeID
	dist int
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// grow propagates an improvement at v forward; only strictly-improved
// nodes are re-settled.
func (st *ispfState) grow(v topo.NodeID, dist int) {
	st.dist[v] = dist
	st.moved(v)
	h := &distHeap{{node: v, dist: dist}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if cur, ok := st.dist[it.node]; !ok || it.dist > cur {
			continue
		}
		for _, e := range st.adj[it.node] {
			nd := st.dist[it.node] + e.metric
			if cur, ok := st.dist[e.to]; !ok || nd < cur {
				st.dist[e.to] = nd
				st.moved(e.to)
				heap.Push(h, distItem{node: e.to, dist: nd})
			}
		}
	}
}

// shrink handles a degradation at v: flood the affected region (nodes
// whose distance no longer has an unaffected certificate), reset it, seed
// each member from the unaffected boundary, and re-settle the region.
func (st *ispfState) shrink(src, v topo.NodeID) {
	aff := []topo.NodeID{v}
	affected := map[topo.NodeID]bool{v: true}
	for i := 0; i < len(aff); i++ {
		u := aff[i]
		du := st.dist[u]
		for _, e := range st.adj[u] {
			w := e.to
			if w == src || affected[w] {
				continue
			}
			dw, ok := st.dist[w]
			if !ok || du+e.metric != dw {
				continue // u never supported w's distance
			}
			if cert, reach := st.certify(w, affected); reach && cert == dw {
				continue // an unaffected in-edge still certifies w
			}
			affected[w] = true
			aff = append(aff, w)
		}
	}
	for _, u := range aff {
		st.moved(u) // strictly degrades, or becomes unreachable
		delete(st.dist, u)
	}
	h := &distHeap{}
	for _, u := range aff {
		// With the region's distances deleted, certify sees only the
		// unaffected boundary.
		if cert, reach := st.certify(u, nil); reach {
			st.dist[u] = cert
			heap.Push(h, distItem{node: u, dist: cert})
		}
	}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if cur, ok := st.dist[it.node]; !ok || it.dist > cur {
			continue
		}
		for _, e := range st.adj[it.node] {
			if !affected[e.to] {
				continue // boundary distances are already optimal
			}
			nd := st.dist[it.node] + e.metric
			if cur, ok := st.dist[e.to]; !ok || nd < cur {
				st.dist[e.to] = nd
				heap.Push(h, distItem{node: e.to, dist: nd})
			}
		}
	}
}

// deriveRoutes brings the instance's routing table in line with the live
// ISPF state, re-deriving only what the repairs since the last derivation
// can have changed. The ECMP parents of a node are its in-edges achieving
// equality with its distance — the same set a full Dijkstra collects — and
// its first hops are the union of its parents' (a parent that is the source
// contributes the connecting link), so the table equals full SPF's. The
// walk starts from the touched nodes and visits nodes nearest first, so every parent is final before its children read
// it; a node whose route comes out as it was stops the walk there, one
// whose route moved is written in place, entered in the changed set for
// delta-based propagation into the routers' IP tables, and hands the walk
// to its children on the shortest-path DAG.
func (d *Domain) deriveRoutes(in *Instance) {
	d.ISPFRuns++
	st := in.ispf
	h := &distHeap{}
	queued := make(map[topo.NodeID]bool)
	push := func(v topo.NodeID) {
		if v == in.Node || queued[v] {
			return
		}
		queued[v] = true
		dv, ok := st.dist[v]
		if !ok {
			dv = -1 // unreachable: depends on nobody, goes first
		}
		heap.Push(h, distItem{node: v, dist: dv})
	}
	for _, v := range st.touched {
		push(v)
	}
	st.touched = st.touched[:0]
	if in.changed == nil {
		in.changed = make(map[topo.NodeID]bool)
	}

	for h.Len() > 0 {
		v := heap.Pop(h).(distItem).node
		dv, reach := st.dist[v]
		// First-hop sets are shared by aliasing: a single-parent node (the
		// common case) points at its parent's slice, and only genuine ECMP
		// joins allocate a merged copy. Slices stay sorted, so NextHop (the
		// lowest link) and table comparisons are deterministic.
		var hops []topo.LinkID
		for _, e := range st.radj[v] {
			du, ok := st.dist[e.from]
			if !reach || !ok || du+e.metric != dv {
				continue // not a shortest-path in-edge
			}
			if e.from == in.Node {
				hops = mergeHops(hops, []topo.LinkID{e.link})
			} else {
				hops = mergeHops(hops, in.routes[e.from].NextHops)
			}
		}
		old, had := in.routes[v]
		if len(hops) == 0 {
			if !had {
				continue
			}
			delete(in.routes, v)
		} else {
			next := Route{Dest: v, NextHop: hops[0], NextHops: hops, Metric: dv}
			if had && sameRoute(old, next) {
				continue
			}
			in.routes[v] = next
		}
		in.changed[v] = true
		for _, e := range st.adj[v] {
			if dw, ok := st.dist[e.to]; ok && reach && dv+e.metric == dw {
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

// noteChanged merges the differences between the current and next routing
// tables into the instance's changed-destination set.
func (in *Instance) noteChanged(next map[topo.NodeID]Route) {
	if in.changed == nil {
		in.changed = make(map[topo.NodeID]bool)
	}
	for dst, old := range in.routes {
		nw, ok := next[dst]
		if !ok || !sameRoute(old, nw) {
			in.changed[dst] = true
		}
	}
	for dst := range next {
		if _, ok := in.routes[dst]; !ok {
			in.changed[dst] = true
		}
	}
}

func sameRoute(a, b Route) bool {
	if a.Dest != b.Dest || a.NextHop != b.NextHop || a.Metric != b.Metric || len(a.NextHops) != len(b.NextHops) {
		return false
	}
	for i := range a.NextHops {
		if a.NextHops[i] != b.NextHops[i] {
			return false
		}
	}
	return true
}

// TakeChangedDests returns the destinations whose route changed since the
// last call (sorted) and resets the set. The core's reconvergence path
// uses this for delta-based propagation into the routers' IP tables.
func (in *Instance) TakeChangedDests() []topo.NodeID {
	if len(in.changed) == 0 {
		in.changed = nil
		return nil
	}
	out := make([]topo.NodeID, 0, len(in.changed))
	for dst := range in.changed {
		out = append(out, dst)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	in.changed = nil
	return out
}
