// Incremental SPF (ISPF). A full SPF run rebuilds the believed topology
// from the LSDB and searches it from scratch on every event; at backbone
// scale that cost, multiplied by every router in the domain, is what makes
// single-link flaps expensive. ISPF instead keeps each instance's
// shortest-path state alive — a topo.SSSP over ranks holding the
// bidirectionally-checked adjacency and the distance field — and feeds it
// the believed-topology deltas edge by edge as LSAs are installed; the
// engine repairs its distances after each edge and records the nodes it
// touched. Routes are then re-derived for those alone and, in
// increasing-distance order, for the shortest-path-DAG descendants whose
// first-hop set actually moved: a node's ECMP parents are exactly its
// in-edges satisfying dist[u] + metric == dist[v], and a full SPF is the
// same walk with every node touched, so ISPF routes are identical to
// full-SPF routes (ispf_test.go proves this, and that the changed-destination
// ledger equals the full derivation's diff, against a shadow domain across
// random flap sequences).
//
// ISPF state is derived, never serialized: snapshot restore drops it and
// the next recompute falls back to a full SPF, which rebuilds it.
package ospf

import (
	"cmp"
	"slices"

	"mplsvpn/internal/topo"
)

// scratch is the working memory of a domain's computations, one at a time:
// nothing in it outlives the call that uses it, and marks is all false
// between calls.
type scratch struct {
	heap       distHeap
	marks      []bool          // deriveRoutes: queued
	rowA, rowB []topo.Edge     // install: the origin's old and new rows
	sssp       topo.SPFScratch // every instance's repairs
	sent       []int           // flood: each outbox's length as a round began
}

type (
	distItem = topo.DistItem[int]
	distHeap = topo.DistHeap[int]
)

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
func (d *Domain) believed(in *Instance, row []topo.Edge, lsa *LSA) []topo.Edge {
	for _, l := range lsa.Links {
		if to := d.idx.Of(l.Neighbor); to >= 0 && advertises(in.lsdb[to].Links, lsa.Origin) {
			row = append(row, topo.Edge{Node: to, Metric: l.Metric, Link: l.LinkID})
		}
	}
	return row
}

// findEdge returns the position of the edge over link in row, or -1.
func findEdge(row []topo.Edge, link topo.LinkID) int {
	for i := range row {
		if row[i].Link == link {
			return i
		}
	}
	return -1
}

// install replaces origin's LSA in the instance's database. When ISPF
// state is live, the believed-topology deltas are fed to it one directed
// edge at a time; the engine repairs the distances after each.
func (d *Domain) install(in *Instance, lsa LSA) {
	o := d.idx.Of(lsa.Origin)
	old := in.lsdb[o]
	in.lsdb[o] = lsa
	sp := in.ispf
	if sp == nil {
		return
	}

	// Out-edges of the origin under the bidirectional check, from the new
	// LSA against the (already updated) database, diffed by link against a
	// copy of the old row: RemoveEdge below edits the held one in place.
	outNew := d.believed(in, d.rowA[:0], &lsa)
	outOld := append(d.rowB[:0], sp.Out(o)...)
	d.rowA, d.rowB = outNew, outOld
	for _, e := range outOld {
		if findEdge(outNew, e.Link) < 0 {
			sp.RemoveEdge(o, e.Link)
		}
	}
	for _, e := range outNew {
		if findEdge(outOld, e.Link) < 0 {
			sp.AddEdge(o, e)
		} else {
			sp.SetMetric(o, e.Link, e.Metric)
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
				switch {
				case bl.Neighbor != lsa.Origin:
				case up:
					sp.AddEdge(n, topo.Edge{Node: o, Metric: bl.Metric, Link: bl.LinkID})
				default:
					sp.RemoveEdge(n, bl.LinkID)
				}
			}
		}
	}
	flip(&old, &lsa, false)
	flip(&lsa, &old, true)
}

// deriveRoutes brings the instance's routing table in line with its SPF
// state, re-deriving only what the engine touched since the last derivation
// (after a build, every node). The ECMP parents of a node are its in-edges
// achieving equality with its distance, and its first hops are the union of
// its parents' (a parent that is the source contributes the connecting
// link). The walk visits nodes nearest first, so every parent is final
// before its children read it: the touched nodes sorted by distance (a
// build lists them so already), merged with a heap of the nodes the walk
// reaches beyond them. A node whose route comes out as it was stops the walk
// there; one whose route moved is written in place, entered in the changed
// set for delta-based propagation into the routers' IP tables, and hands
// the walk to its children on the shortest-path DAG. An unreachable node
// (distance Unreachable, last) has neither parents nor children.
func (d *Domain) deriveRoutes(in *Instance) {
	sp := in.ispf
	src := d.idx.Of(in.Node)
	h, queued := &d.heap, d.marks
	*h = (*h)[:0]
	touched := sp.Touched
	slices.SortFunc(touched, func(a, b int) int { return cmp.Compare(sp.Dist[a], sp.Dist[b]) })
	for _, v := range touched {
		queued[v] = true
	}
	for i := 0; ; {
		var v int
		switch {
		case i < len(touched) && (len(*h) == 0 || sp.Dist[touched[i]] <= (*h)[0].Dist):
			v, i = touched[i], i+1
		case len(*h) > 0:
			v = h.Pop().Node
		default:
			sp.Touched = touched[:0]
			return
		}
		if !queued[v] {
			continue // listed twice, walked once
		}
		queued[v] = false
		dv := sp.Dist[v]
		// First-hop sets are shared by aliasing: a single-parent node (the
		// common case) points at its parent's slice, and only genuine ECMP
		// joins allocate a merged copy. Slices stay sorted, so NextHop (the
		// lowest link) and table comparisons are deterministic.
		var hops []topo.LinkID
		sp.Parents(v, func(e topo.Edge) {
			if e.Node == src {
				hops = mergeHops(hops, []topo.LinkID{e.Link})
			} else {
				hops = mergeHops(hops, in.routes[e.Node].NextHops)
			}
		})
		var next Route
		if len(hops) > 0 {
			next = Route{Dest: d.idx.Nodes[v], NextHop: hops[0], NextHops: hops, Metric: dv}
		}
		if sameRoute(in.routes[v], next) {
			continue
		}
		in.routes[v], in.changed[v] = next, true
		if dv == topo.Unreachable {
			continue
		}
		for _, e := range sp.Out(v) {
			if w := e.Node; dv+e.Metric == sp.Dist[w] && !queued[w] {
				queued[w] = true
				h.Push(distItem{Node: w, Dist: sp.Dist[w]})
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

// AppendChangedDests appends to dst the destinations whose route changed
// since the ledger was last drained, ascending, and drains it. The core's
// reconvergence path appends every router's into one buffer it keeps, for
// delta-based propagation into the routers' IP tables.
func (in *Instance) AppendChangedDests(dst []topo.NodeID) []topo.NodeID {
	for v, c := range in.changed {
		if c {
			dst = append(dst, in.idx.Nodes[v])
			in.changed[v] = false
		}
	}
	return dst
}

// DropChangedDests drains the ledger without listing it: for a caller that
// has just installed every route anyway.
func (in *Instance) DropChangedDests() { clear(in.changed) }
