package bgp

import (
	"cmp"
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
	// ascending by prefix — unless the speaker's bestIsUnion says the
	// selection is the exports and paths themselves, when it is nil (see
	// selectBest).
	best []uint32
}

// round is the scratch of one Converge call, dropped when it returns.
// Receivers are filled one at a time: a receiver's arrivals collect in tail
// and seal folds them into its run, sorting through buf and ends and merging
// into merged, so one set of buffers serves every speaker of the round. sent
// is a cluster's stamped send list, stamps the sets its stamping has made
// (by the set stamped), refls and list the Reflections and CLUSTER_LIST of
// those it made new, ix what a phase's senders offer (reflect.go), and view
// the route an ImportFilter is asked about.
//
// rank is, per handle, the rank of the route's prefix among the prefixes of
// the table the round began with: routes compare as their ranks do, so the
// sort and the merge of a seal compare two integers of one array and never
// read a route for it. A stamped copy takes its original's rank.
type round struct {
	m                       *Mesh
	rank                    []uint32
	tail, buf, merged, sent []uint32
	ends                    []int
	ix                      rtIndex
	stamps                  map[uint32]uint32
	refls                   map[topo.NodeID]*Reflection
	list                    []uint32
	view                    VPNRoute
	// displaced is set when a seal replaced a retained route with another
	// one, which may leave the first referenced by nothing.
	displaced bool
}

// newRound ranks the routes of m's table for a Converge to sort by, using
// order, of at least the table's length, as scratch; the round stamps at
// most stamps routes.
func (m *Mesh) newRound(order []uint32, stamps int) round {
	routes := m.routes
	order = order[:len(routes)]
	for h := range order {
		order[h] = uint32(h)
	}
	slices.SortFunc(order, func(a, b uint32) int { return addr.CompareVPNPrefix(routes[a].Prefix, routes[b].Prefix) })
	rank := make([]uint32, len(routes), len(routes)+stamps)
	k := uint32(0)
	for i, h := range order {
		if i > 0 && routes[h].Prefix != routes[order[i-1]].Prefix {
			k++
		}
		rank[h] = k
	}
	return round{m: m, rank: rank, stamps: make(map[uint32]uint32), refls: make(map[topo.NodeID]*Reflection)}
}

// runEnd returns the end of the run of routes in hs that share hs[i]'s
// attribute set.
func (m *Mesh) runEnd(hs []uint32, i int) int {
	a, j := m.routes[hs[i]].attr, i+1
	for j < len(hs) && m.routes[hs[j]].attr == a {
		j++
	}
	return j
}

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
func (s *Speaker) retain(keep func(p addr.VPNPrefix, origin topo.NodeID) bool, gone func(addr.VPNPrefix)) {
	m := s.mesh
	run, out := s.rib.paths, s.rib.paths[:0]
	for i := 0; i < len(run); {
		j, n, p := s.span(run, i), len(out), m.routes[run[i]].Prefix
		for _, h := range run[i:j] {
			if keep(p, m.originOf(h)) {
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

// offer hands s, the receiver being filled, the routes sel one sender sends
// it, a run of one attribute set at a time, as an UPDATE carries them: a run
// whose set loops (when given) drops is counted as loop-prevented, and any
// other goes to receive. Every route counts as one update sent.
func (rd *round) offer(s *Speaker, sel []uint32, loops *loopCheck, bypassFilter bool) {
	m := rd.m
	m.UpdatesSent += len(sel)
	for i, j := 0, 0; i < len(sel); i = j {
		j = m.runEnd(sel, i)
		if loops != nil && loops.drops(m.attrsOf(sel[i])) {
			m.LoopPrevented += j - i
			continue
		}
		rd.receive(s, sel[i:j], bypassFilter)
	}
}

// receive offers s the routes hs, which share one attribute set: the filter
// is asked once, about the first. A route reflector bypasses the import
// filter: it must retain routes for VPNs it does not serve, or it could not
// reflect them. Kept routes join the tail, and s's RIB once seal folds the
// tail in.
func (rd *round) receive(s *Speaker, hs []uint32, bypassFilter bool) {
	s.Received += len(hs)
	if !bypassFilter && s.Filter != nil {
		rd.m.view(hs[0], &rd.view)
		if !s.Filter(&rd.view) {
			return
		}
	}
	s.Retained += len(hs)
	rd.tail = append(rd.tail, hs...)
}

// place puts h into s's group of its prefix that starts at dst[g]. A
// re-announcement from the same origin refreshes the retained route in
// place, clearing any graceful-restart stale mark (RFC 4724 mark-and-sweep);
// any other route goes behind the group.
func (rd *round) place(s *Speaker, dst []uint32, g int, h uint32) []uint32 {
	if g == len(dst) {
		return append(dst, h)
	}
	m := rd.m
	o := m.originOf(h)
	for i := g; i < len(dst); i++ {
		if m.originOf(dst[i]) == o {
			rd.displaced = rd.displaced || dst[i] != h
			dst[i] = h
			s.clearStale(m.routes[h].Prefix, o)
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
// once, at its size.
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
// one pass that merges the two in prefix order. Inside a prefix exports are
// considered first, then received routes in arrival order. Prefixes compare
// as their ranks in rank do, when a round ranked every handle s holds, and
// by the routes otherwise (a load, a withdrawal, a sweep or a reuse between
// rounds). Where every prefix is held by one route and none is suppressed,
// the selection is the exports and the Adj-RIB-In themselves (bestIsUnion),
// and rib.best holds nothing. Otherwise a prefix held by one route selects
// it unread, unless
// damping may have suppressed it; only a prefix with two routes or more
// runs better.
func (s *Speaker) selectBest(rank []uint32) {
	m := s.mesh
	routes := m.routes
	order := func(a, b uint32) int {
		if rank != nil {
			return cmp.Compare(rank[a], rank[b])
		}
		return addr.CompareVPNPrefix(routes[a].Prefix, routes[b].Prefix)
	}
	ex := s.exports
	paths := s.rib.paths
	// union holds while every prefix met so far is held by one route, and
	// best is allocated only once it fails.
	union := !s.suppresses()
	var best []uint32
	if !union {
		best = make([]uint32, 0, len(ex)+len(paths))
	}
	undamped := len(s.damp) == 0
	for i, j := 0, 0; i < len(ex) || j < len(paths); {
		// The prefix's group is ex[i:ei] and paths[j:pj], and lead its first
		// route.
		lead, ei, pj := uint32(0), i, j
		if j == len(paths) || i < len(ex) && order(ex[i], paths[j]) < 0 {
			lead, ei = ex[i], i+1
		} else {
			lead, pj = paths[j], j+1
		}
		for ; ei < len(ex) && order(ex[ei], lead) == 0; ei++ {
		}
		for ; pj < len(paths) && order(paths[pj], lead) == 0; pj++ {
		}
		single := ei-i+pj-j == 1
		if union {
			if single {
				i, j = ei, pj
				continue
			}
			// Every prefix before this one is held by one route, selected.
			union, best = false, merge(make([]uint32, 0, len(ex)+len(paths)), ex[:i], paths[:j], order)
		}
		if undamped && single {
			best = append(best, lead)
			i, j = ei, pj
			continue
		}
		var cur *attrs
		var pick uint32
		for ; i < ei; i++ {
			if a := m.attrsOf(ex[i]); cur == nil || better(a, cur) {
				cur, pick = a, ex[i]
			}
		}
		// Damped: received paths are suppressed (exports never are).
		if d, ok := s.damp[routes[lead].Prefix]; !ok || !d.suppressed {
			for ; j < pj; j++ {
				if a := m.attrsOf(paths[j]); cur == nil || better(a, cur) {
					cur, pick = a, paths[j]
				}
			}
		}
		if cur != nil {
			best = append(best, pick)
		}
		i, j = ei, pj
	}
	s.rib.best, s.bestIsUnion = best, union
}

// merge appends to dst the two runs a and b, which ascend as order does and
// share no prefix, in that order.
func merge(dst, a, b []uint32, order func(a, b uint32) int) []uint32 {
	for len(a) > 0 && len(b) > 0 {
		if order(a[0], b[0]) < 0 {
			dst, a = append(dst, a[0]), a[1:]
		} else {
			dst, b = append(dst, b[0]), b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// suppresses reports whether damping suppresses some prefix at s.
func (s *Speaker) suppresses() bool {
	for _, d := range s.damp {
		if d.suppressed {
			return true
		}
	}
	return false
}

// eachBest calls fn with the handle of every selected route, in prefix
// order.
func (s *Speaker) eachBest(fn func(h uint32)) {
	if !s.bestIsUnion {
		for _, h := range s.rib.best {
			fn(h)
		}
		return
	}
	// No export shares a prefix with a path: each export goes where a
	// search of the paths after the last one puts it.
	paths := s.rib.paths
	for _, x := range s.exports {
		k, _ := s.search(paths, s.mesh.routes[x].Prefix)
		for _, h := range paths[:k] {
			fn(h)
		}
		fn(x)
		paths = paths[k:]
	}
	for _, h := range paths {
		fn(h)
	}
}

// freezeBest turns a selection that is the union of the runs into one of
// its own, for the exports to change under it: the Loc-RIB changes at the
// next selection, not before.
func (s *Speaker) freezeBest() {
	if !s.bestIsUnion {
		return
	}
	best := make([]uint32, 0, s.bestLen())
	s.eachBest(func(h uint32) { best = append(best, h) })
	s.rib.best, s.bestIsUnion = best, false
}

// bestLen returns how many routes s selected.
func (s *Speaker) bestLen() int {
	if s.bestIsUnion {
		return len(s.exports) + len(s.rib.paths)
	}
	return len(s.rib.best)
}

// Best returns the selected route for a VPN prefix.
func (s *Speaker) Best(p addr.VPNPrefix) (*VPNRoute, bool) {
	runs := [][]uint32{s.rib.best}
	if s.bestIsUnion {
		runs = [][]uint32{s.exports, s.rib.paths}
	}
	for _, run := range runs {
		if i, ok := s.search(run, p); ok {
			r := new(VPNRoute)
			s.mesh.view(run[i], r)
			return r, true
		}
	}
	return nil, false
}

// BestRoutes returns all selected routes in prefix order, in a slice of
// their own of exactly that length, pointing into one block of views: the
// caller may keep or modify the slice, but the routes' lists are the mesh's
// and must only be read.
func (s *Speaker) BestRoutes() []*VPNRoute {
	views := s.AppendBestRoutes(make([]VPNRoute, 0, s.bestLen()))
	out := make([]*VPNRoute, len(views))
	for i := range views {
		out[i] = &views[i]
	}
	return out
}

// AppendBestRoutes appends views of the selected routes to dst in prefix
// order, by value, and returns the extended slice: BestRoutes into a buffer
// the caller reuses across speakers, which allocates nothing once it is
// large enough. The routes' lists are the mesh's and must only be read.
func (s *Speaker) AppendBestRoutes(dst []VPNRoute) []VPNRoute {
	dst = slices.Grow(dst, s.bestLen())
	s.eachBest(func(h uint32) {
		dst = dst[:len(dst)+1]
		s.mesh.view(h, &dst[len(dst)-1])
	})
	return dst
}

// RIBSize returns the number of retained routes (adj-RIB-in entries).
func (s *Speaker) RIBSize() int { return len(s.rib.paths) }
