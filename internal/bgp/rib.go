package bgp

import (
	"slices"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/topo"
)

// rib is one speaker's Adj-RIB-In and Loc-RIB: two runs of handles into the
// mesh's route table, in prefix order. A run is its own index — a prefix is
// found by binary search and walked in order without sorting anything —
// costs four bytes an entry, where a hash map keyed by prefix cost ten times
// that, and holds nothing the garbage collector has to follow.
type rib struct {
	// paths is Adj-RIB-In, ascending by prefix; inside a prefix routes keep
	// arrival order (the decision process keeps the first route on a full
	// tie, so that order is semantics) and there is one route per OriginPE.
	paths []uint32
	// best is Loc-RIB: the selected route of every prefix that has one,
	// ascending by prefix.
	best []uint32
}

// round is the scratch of one Converge call, dropped when it returns.
// Receivers are filled one at a time: a receiver's arrivals collect in tail
// and seal folds them into its run, sorting through buf and ends and merging
// into merged, so one set of buffers serves every speaker of the round. sent
// is a cluster's stamped send list, ix what a phase's senders offer and
// refls the Reflections stamp hands out (reflect.go).
//
// rank is, per handle, the rank of the route's prefix among the prefixes of
// the table the round began with: routes compare as their ranks do, so the
// sort and the merge of a seal compare two integers of one array and never
// dereference a route for it. A stamped copy takes its original's rank.
type round struct {
	m                       *Mesh
	rank                    []uint32
	tail, buf, merged, sent []uint32
	ends                    []int
	ix                      rtIndex
	refls                   map[topo.NodeID]*Reflection
	// displaced is set when a seal replaced a retained route with another
	// one, which may leave the first referenced by nothing.
	displaced bool
}

// newRound ranks the routes of m's table for a Converge to sort by, using
// order, of at least the table's length, as scratch.
func (m *Mesh) newRound(order []uint32) round {
	routes := m.routes
	order = order[:len(routes)]
	for h := range order {
		order[h] = uint32(h)
	}
	slices.SortFunc(order, func(a, b uint32) int { return byPrefix(routes[a], routes[b]) })
	rank := make([]uint32, len(routes), cap(routes))
	k := uint32(0)
	for i, h := range order {
		if i > 0 && routes[h].Prefix != routes[order[i-1]].Prefix {
			k++
		}
		rank[h] = k
	}
	return round{m: m, rank: rank, refls: make(map[topo.NodeID]*Reflection)}
}

func byPrefix(a, b *VPNRoute) int { return addr.CompareVPNPrefix(a.Prefix, b.Prefix) }

// search finds p in a run of s's, as slices.BinarySearch does.
func (s *Speaker) search(run []uint32, p addr.VPNPrefix) (int, bool) {
	routes := s.mesh.routes
	return slices.BinarySearchFunc(run, p, func(h uint32, p addr.VPNPrefix) int {
		return addr.CompareVPNPrefix(routes[h].Prefix, p)
	})
}

// span returns the end of the group of routes in run that share run[i]'s
// prefix.
func (s *Speaker) span(run []uint32, i int) int {
	routes := s.mesh.routes
	p, j := routes[run[i]].Prefix, i+1
	for j < len(run) && routes[run[j]].Prefix == p {
		j++
	}
	return j
}

// forPrefix returns the retained routes for p, in arrival order.
func (s *Speaker) forPrefix(p addr.VPNPrefix) []uint32 {
	i, ok := s.search(s.rib.paths, p)
	if !ok {
		return nil
	}
	return s.rib.paths[i:s.span(s.rib.paths, i)]
}

// eachPrefix calls fn for every prefix that has a retained route, ascending.
func (s *Speaker) eachPrefix(fn func(addr.VPNPrefix)) {
	for i := 0; i < len(s.rib.paths); i = s.span(s.rib.paths, i) {
		fn(s.mesh.routes[s.rib.paths[i]].Prefix)
	}
}

// retain drops, in place, the retained routes keep refuses, and reports to
// gone (when given) every prefix that lost its last route.
func (s *Speaker) retain(keep func(*VPNRoute) bool, gone func(addr.VPNPrefix)) {
	routes := s.mesh.routes
	run, out := s.rib.paths, s.rib.paths[:0]
	for i := 0; i < len(run); {
		j, n, p := s.span(run, i), len(out), routes[run[i]].Prefix
		for _, h := range run[i:j] {
			if keep(routes[h]) {
				out = append(out, h)
			}
		}
		if len(out) == n && gone != nil {
			gone(p)
		}
		i = j
	}
	s.rib.paths = out
}

// receive offers the route with handle h to s, the receiver being filled. A
// route reflector bypasses the import filter: it must retain routes for VPNs
// it does not serve, or it could not reflect them. The route joins the tail,
// and s's RIB once seal folds the tail in.
func (rd *round) receive(s *Speaker, h uint32, bypassFilter bool) {
	s.Received++
	if !bypassFilter && s.Filter != nil && !s.Filter(rd.m.routes[h]) {
		return
	}
	s.Retained++
	rd.tail = append(rd.tail, h)
}

// place puts h into s's group of its prefix that starts at dst[g]. A
// re-announcement from the same origin refreshes the retained route in
// place, clearing any graceful-restart stale mark (RFC 4724 mark-and-sweep);
// any other route goes behind the group.
func (rd *round) place(s *Speaker, dst []uint32, g int, h uint32) []uint32 {
	routes := rd.m.routes
	r := routes[h]
	for i := g; i < len(dst); i++ {
		if routes[dst[i]].OriginPE == r.OriginPE {
			rd.displaced = rd.displaced || dst[i] != h
			dst[i] = h
			s.clearStale(r.Prefix, r.OriginPE)
			return dst
		}
	}
	return append(dst, h)
}

// sortRuns sorts rs by prefix, stably: what slices.SortStableFunc does, for
// an input that is a few ascending runs end to end — a tail is one run per
// sending peer. It finds the runs and merges neighbours pairwise, to and
// fro between rs and the round's buffer, the left run winning ties; a tail
// in no order at all is runs of one and an ordinary merge sort.
func (rd *round) sortRuns(rs []uint32) {
	rank := rd.rank
	ends := rd.ends[:0] // where each run ends
	for i := 1; i <= len(rs); i++ {
		if i == len(rs) || rank[rs[i-1]] > rank[rs[i]] {
			ends = append(ends, i)
		}
	}
	if rd.ends = ends; len(ends) < 2 {
		return
	}
	rd.buf = slices.Grow(rd.buf[:0], len(rs))
	src, dst := rs, rd.buf[:len(rs)]
	for ; len(ends) > 1; src, dst = dst, src {
		merged, lo := ends[:0], 0
		for r := 0; r < len(ends); r += 2 {
			mid, hi := ends[r], ends[min(r+1, len(ends)-1)]
			a, b, out := src[lo:mid], src[mid:hi], dst[lo:lo]
			for len(a) > 0 && len(b) > 0 {
				if rank[b[0]] < rank[a[0]] {
					out, b = append(out, b[0]), b[1:]
				} else {
					out, a = append(out, a[0]), a[1:]
				}
			}
			copy(dst[lo+len(out):hi], a) // one of the two is spent
			copy(dst[hi-len(b):hi], b)
			merged, lo = append(merged, hi), hi
		}
		ends = merged
	}
	if &src[0] != &rs[0] {
		copy(rs, src)
	}
}

// seal folds the tail into s's run and empties it, leaving what offering the
// same routes one by one to a per-prefix list would have: the stable sort
// keeps arrival order inside a prefix, and place applies each arrival in
// that order. The fold is merged in the round's buffer and the run allocated
// once, at its size: redundant reflectors send everything twice, and the
// run holds no slack for it.
func (rd *round) seal(s *Speaker) {
	head, tail, rank := s.rib.paths, rd.tail, rd.rank
	if len(tail) == 0 {
		return
	}
	rd.sortRuns(tail)
	out := rd.merged[:0]
	for i, j := 0, 0; i < len(head) || j < len(tail); {
		p, g := first(rank, head[i:], tail[j:]), len(out)
		for ; i < len(head) && rank[head[i]] == p; i++ {
			out = append(out, head[i])
		}
		for ; j < len(tail) && rank[tail[j]] == p; j++ {
			out = rd.place(s, out, g, tail[j])
		}
	}
	s.rib.paths = slices.Clone(out)
	rd.merged, rd.tail = out, tail[:0]
}

// first returns the lesser of the ranks two runs start with; one of the
// runs may be spent.
func first(rank, a, b []uint32) uint32 {
	if len(b) == 0 || (len(a) > 0 && rank[a[0]] < rank[b[0]]) {
		return rank[a[0]]
	}
	return rank[b[0]]
}

// selectBest runs the decision process over local routes plus adj-RIB-in:
// one pass that merges the two in prefix order, reading each route once.
// Inside a prefix exports are considered first, then received routes in
// arrival order.
func (s *Speaker) selectBest() {
	routes := s.mesh.routes
	ex := s.exports
	if s.disordered {
		ex = slices.Clone(ex)
		slices.SortStableFunc(ex, func(a, b uint32) int { return byPrefix(routes[a], routes[b]) })
	}
	paths := s.rib.paths
	best := make([]uint32, 0, len(ex)+len(paths))
	// at returns the route at run[i], nil past the run's end.
	at := func(run []uint32, i int) *VPNRoute {
		if i < len(run) {
			return routes[run[i]]
		}
		return nil
	}
	i, j := 0, 0
	for e, r := at(ex, 0), at(paths, 0); e != nil || r != nil; {
		var p addr.VPNPrefix
		if r == nil || e != nil && byPrefix(e, r) < 0 {
			p = e.Prefix
		} else {
			p = r.Prefix
		}
		var cur *VPNRoute
		var pick uint32
		for ; e != nil && e.Prefix == p; i, e = i+1, at(ex, i+1) {
			if cur == nil || better(e, cur) {
				cur, pick = e, ex[i]
			}
		}
		// Damped: received paths are suppressed (exports never are).
		d, ok := s.damp[p]
		damped := ok && d.suppressed
		for ; r != nil && r.Prefix == p; j, r = j+1, at(paths, j+1) {
			if !damped && (cur == nil || better(r, cur)) {
				cur, pick = r, paths[j]
			}
		}
		if cur != nil {
			best = append(best, pick)
		}
	}
	s.rib.best = best
}

// Best returns the selected route for a VPN prefix.
func (s *Speaker) Best(p addr.VPNPrefix) (*VPNRoute, bool) {
	i, ok := s.search(s.rib.best, p)
	if !ok {
		return nil, false
	}
	return s.mesh.routes[s.rib.best[i]], true
}

// BestRoutes returns all selected routes in prefix order, in a slice of
// their own of exactly that length: the caller may keep or modify the slice,
// but the routes are the mesh's and must only be read.
func (s *Speaker) BestRoutes() []*VPNRoute {
	return s.AppendBestRoutes(make([]*VPNRoute, 0, len(s.rib.best)))
}

// AppendBestRoutes appends the selected routes to dst in prefix order and
// returns the extended slice: BestRoutes into a buffer the caller reuses
// across speakers, which allocates nothing once it is large enough.
func (s *Speaker) AppendBestRoutes(dst []*VPNRoute) []*VPNRoute {
	for _, h := range s.rib.best {
		dst = append(dst, s.mesh.routes[h])
	}
	return dst
}

// RIBSize returns the number of retained routes (adj-RIB-in entries).
func (s *Speaker) RIBSize() int { return len(s.rib.paths) }
