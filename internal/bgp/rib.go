package bgp

import (
	"slices"

	"mplsvpn/internal/addr"
)

// rib is one speaker's Adj-RIB-In and Loc-RIB: two runs of route pointers
// in prefix order. A run is its own index — a prefix is found by binary
// search and walked in order without sorting anything — and costs eight
// bytes an entry, where a hash map keyed by prefix cost five times that.
type rib struct {
	// paths is Adj-RIB-In. paths[:sealed] ascends by prefix; inside a prefix
	// routes keep arrival order (the decision process keeps the first route
	// on a full tie, so that order is semantics) and there is one route per
	// OriginPE. paths[sealed:] is the unsorted tail receive appends to;
	// seal folds it in. Outside Converge the tail is empty.
	paths  []*VPNRoute
	sealed int
	// best is Loc-RIB: the selected route of every prefix that has one,
	// ascending by prefix.
	best []*VPNRoute
}

func byPrefix(a, b *VPNRoute) int { return addr.CompareVPNPrefix(a.Prefix, b.Prefix) }

func atPrefix(r *VPNRoute, p addr.VPNPrefix) int { return addr.CompareVPNPrefix(r.Prefix, p) }

// span returns the end of the group of routes that share rs[i]'s prefix.
func span(rs []*VPNRoute, i int) int {
	j := i + 1
	for j < len(rs) && rs[j].Prefix == rs[i].Prefix {
		j++
	}
	return j
}

// forPrefix returns the retained routes for p, in arrival order.
func (b *rib) forPrefix(p addr.VPNPrefix) []*VPNRoute {
	run := b.paths[:b.sealed]
	i, ok := slices.BinarySearchFunc(run, p, atPrefix)
	if !ok {
		return nil
	}
	return run[i:span(run, i)]
}

// eachPrefix calls fn for every prefix that has a retained route, ascending.
func (b *rib) eachPrefix(fn func(addr.VPNPrefix)) {
	for i := 0; i < b.sealed; i = span(b.paths[:b.sealed], i) {
		fn(b.paths[i].Prefix)
	}
}

// retain drops, in place, the routes keep refuses, and reports to gone (when
// given) every prefix that lost its last route.
func (b *rib) retain(keep func(*VPNRoute) bool, gone func(addr.VPNPrefix)) {
	run, out := b.paths[:b.sealed], b.paths[:0]
	for i := 0; i < len(run); {
		j, n, p := span(run, i), len(out), run[i].Prefix
		for _, r := range run[i:j] {
			if keep(r) {
				out = append(out, r)
			}
		}
		if len(out) == n && gone != nil {
			gone(p)
		}
		i = j
	}
	clear(run[len(out):])
	b.paths, b.sealed = out, len(out)
}

// receive offers a route to the speaker. A route reflector bypasses the
// import filter: it must retain routes for VPNs it does not serve, or it
// could not reflect them. The route joins the tail; it is in the RIB for
// readers once the speaker is sealed.
func (s *Speaker) receive(r *VPNRoute, bypassFilter bool) {
	s.Received++
	if !bypassFilter && s.Filter != nil && !s.Filter(r) {
		return
	}
	s.Retained++
	s.rib.paths = append(s.rib.paths, r)
}

// place puts r into the group of its prefix that starts at dst[g]. A
// re-announcement from the same origin refreshes the retained route in
// place, clearing any graceful-restart stale mark (RFC 4724 mark-and-sweep);
// any other route goes behind the group.
func (s *Speaker) place(dst []*VPNRoute, g int, r *VPNRoute) []*VPNRoute {
	for i := g; i < len(dst); i++ {
		if dst[i].OriginPE == r.OriginPE {
			dst[i] = r
			s.clearStale(r.Prefix, r.OriginPE)
			return dst
		}
	}
	return append(dst, r)
}

// sortRuns sorts rs by prefix, stably: what slices.SortStableFunc does, for
// an input that is a few ascending runs end to end — a tail is one run per
// sending peer. It finds the runs and merges neighbours pairwise, to and
// fro between rs and one buffer of its size, the left run winning ties; a
// tail in no order at all is runs of one and an ordinary merge sort.
func sortRuns(rs []*VPNRoute) {
	var ends []int // where each run ends
	for i := 1; i <= len(rs); i++ {
		if i == len(rs) || byPrefix(rs[i-1], rs[i]) > 0 {
			ends = append(ends, i)
		}
	}
	if len(ends) < 2 {
		return
	}
	src, dst := rs, make([]*VPNRoute, len(rs))
	for ; len(ends) > 1; src, dst = dst, src {
		merged, lo := ends[:0], 0
		for r := 0; r < len(ends); r += 2 {
			mid, hi := ends[r], ends[min(r+1, len(ends)-1)]
			a, b, out := src[lo:mid], src[mid:hi], dst[lo:lo]
			for len(a) > 0 && len(b) > 0 {
				if byPrefix(b[0], a[0]) < 0 {
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

// seal folds the tail into the run, leaving what offering the same routes
// one by one to a per-prefix list would have: the stable sort keeps arrival
// order inside a prefix, and place applies each arrival in that order.
func (s *Speaker) seal() {
	b := &s.rib
	head, tail := b.paths[:b.sealed], b.paths[b.sealed:]
	if len(tail) == 0 {
		return
	}
	sortRuns(tail)
	out := make([]*VPNRoute, 0, len(b.paths))
	for i, j := 0, 0; i < len(head) || j < len(tail); {
		p, g := first(head[i:], tail[j:]), len(out)
		for ; i < len(head) && head[i].Prefix == p; i++ {
			out = append(out, head[i])
		}
		for ; j < len(tail) && tail[j].Prefix == p; j++ {
			out = s.place(out, g, tail[j])
		}
	}
	if len(out) < cap(out) {
		// Redundant reflectors send everything twice: hold no slack for it.
		out = slices.Clone(out)
	}
	b.paths, b.sealed = out, len(out)
}

// first returns the lesser of the prefixes two runs start with; one of the
// runs may be spent.
func first(a, b []*VPNRoute) addr.VPNPrefix {
	if len(b) == 0 || (len(a) > 0 && byPrefix(a[0], b[0]) < 0) {
		return a[0].Prefix
	}
	return b[0].Prefix
}

// selectBest runs the decision process over local routes plus adj-RIB-in:
// one pass that merges the two in prefix order. Inside a prefix exports are
// considered first, then received routes in arrival order.
func (s *Speaker) selectBest() {
	ex := s.exports
	if !slices.IsSortedFunc(ex, byPrefix) {
		ex = slices.Clone(ex)
		slices.SortStableFunc(ex, byPrefix)
	}
	paths := s.rib.paths[:s.rib.sealed]
	best := make([]*VPNRoute, 0, len(ex)+len(paths))
	for i, j := 0, 0; i < len(ex) || j < len(paths); {
		p := first(ex[i:], paths[j:])
		var cur *VPNRoute
		for ; i < len(ex) && ex[i].Prefix == p; i++ {
			if cur == nil || better(ex[i], cur) {
				cur = ex[i]
			}
		}
		// Damped: received paths are suppressed (exports never are).
		d, ok := s.damp[p]
		damped := ok && d.suppressed
		for ; j < len(paths) && paths[j].Prefix == p; j++ {
			if !damped && (cur == nil || better(paths[j], cur)) {
				cur = paths[j]
			}
		}
		if cur != nil {
			best = append(best, cur)
		}
	}
	s.rib.best = best
}

// Best returns the selected route for a VPN prefix.
func (s *Speaker) Best(p addr.VPNPrefix) (*VPNRoute, bool) {
	i, ok := slices.BinarySearchFunc(s.rib.best, p, atPrefix)
	if !ok {
		return nil, false
	}
	return s.rib.best[i], true
}

// BestRoutes returns all selected routes in prefix order. The slice is the
// speaker's own until its next best-path selection: read it, do not write
// to it.
func (s *Speaker) BestRoutes() []*VPNRoute { return slices.Clip(s.rib.best) }

// RIBSize returns the number of retained routes (adj-RIB-in entries).
func (s *Speaker) RIBSize() int { return s.rib.sealed }
