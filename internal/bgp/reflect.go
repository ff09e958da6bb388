// Clustered route reflection (RFC 4456) with RT-constrained distribution
// (in the spirit of RFC 4684). The full iBGP mesh needs n(n-1)/2 sessions
// — the control-plane face of the paper's §2.1 scaling argument — and a
// single reflector merely moves the hot spot. Clusters split the PE
// population into regions: each client peers with its region's
// reflector(s), and only the reflectors form a full mesh among
// themselves, so sessions drop from O(n²) to O(n·clusters). A single
// route reflector is one cluster with one reflector and every other
// speaker its client.
//
// Reflection stamps each attribute set once, at its origin cluster: the
// reflector sets ORIGINATOR_ID to the originating PE and seeds CLUSTER_LIST
// with its own cluster ID, and every route of the set is copied under the
// stamped set. Receivers drop looping routes — a reflector drops a
// route whose CLUSTER_LIST already carries its cluster (the redundant-RR
// loop), any speaker drops a route originated by itself. A route is
// "stamped" iff it carries a Reflection, whose CLUSTER_LIST is never empty;
// clients never re-advertise here, so the list never grows past its origin
// cluster and reflected copies stay O(routes), not O(routes · clusters).
//
// RT-constrained distribution is sender-side: a speaker may declare the
// route targets it imports (SetRTInterest); a reflector's interest is the
// union of its clients'. Senders index their advertisable routes by RT
// and emit only what the receiver asked for, which is what keeps a
// million-route backbone's update volume proportional to real imports.
// An undeclared interest means "everything" (back-compat).
package bgp

import (
	"fmt"
	"slices"
	"sort"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/topo"
)

// Cluster is one reflection cluster: its redundant reflectors and the
// client PEs that peer with them.
type Cluster struct {
	ID      uint32
	RRs     []topo.NodeID
	Clients []topo.NodeID
}

// UseClusters switches the mesh to clustered route reflection. Clusters
// are canonicalized (members sorted, clusters ordered by ID); a node may
// appear exactly once across all RR and client lists, and cluster IDs
// must be unique — violations panic, they are scenario bugs.
func (m *Mesh) UseClusters(clusters []Cluster) {
	cs := make([]Cluster, len(clusters))
	for i, c := range clusters {
		cs[i] = Cluster{
			ID:      c.ID,
			RRs:     append([]topo.NodeID(nil), c.RRs...),
			Clients: append([]topo.NodeID(nil), c.Clients...),
		}
		sort.Slice(cs[i].RRs, func(a, b int) bool { return cs[i].RRs[a] < cs[i].RRs[b] })
		sort.Slice(cs[i].Clients, func(a, b int) bool { return cs[i].Clients[a] < cs[i].Clients[b] })
	}
	sort.Slice(cs, func(a, b int) bool { return cs[a].ID < cs[b].ID })
	rrIdx := make(map[topo.NodeID]int)
	clIdx := make(map[topo.NodeID]int)
	ids := make(map[uint32]bool)
	for i, c := range cs {
		if ids[c.ID] {
			panic(fmt.Sprintf("bgp: duplicate cluster ID %d", c.ID))
		}
		ids[c.ID] = true
		if len(c.RRs) == 0 {
			panic(fmt.Sprintf("bgp: cluster %d has no reflectors", c.ID))
		}
		for _, n := range c.RRs {
			if _, dup := rrIdx[n]; dup {
				panic(fmt.Sprintf("bgp: node %d in two clusters", n))
			}
			rrIdx[n] = i
		}
		for _, n := range c.Clients {
			if _, dup := rrIdx[n]; dup {
				panic(fmt.Sprintf("bgp: node %d is both reflector and client", n))
			}
			if _, dup := clIdx[n]; dup {
				panic(fmt.Sprintf("bgp: node %d in two clusters", n))
			}
			clIdx[n] = i
		}
	}
	m.Layout = Clustered
	m.clusters = cs
	m.rrClusterIdx = rrIdx
	m.clientClusterIdx = clIdx
}

// Clusters returns the canonicalized cluster configuration.
func (m *Mesh) Clusters() []Cluster { return m.clusters }

// SetRTInterest declares the route targets speaker n imports, enabling
// sender-side RT-constrained distribution toward it. A nil or empty set
// clears the declaration (n receives everything again).
func (m *Mesh) SetRTInterest(n topo.NodeID, rts []addr.RouteTarget) {
	if len(rts) == 0 {
		delete(m.rtInterest, n)
		return
	}
	if m.rtInterest == nil {
		m.rtInterest = make(map[topo.NodeID][]addr.RouteTarget)
	}
	set := append([]addr.RouteTarget(nil), rts...)
	sort.Slice(set, func(i, j int) bool {
		if set[i].Admin != set[j].Admin {
			return set[i].Admin < set[j].Admin
		}
		return set[i].Assigned < set[j].Assigned
	})
	dedup := set[:0]
	for i, rt := range set {
		if i == 0 || rt != set[i-1] {
			dedup = append(dedup, rt)
		}
	}
	m.rtInterest[n] = dedup
}

// stamped returns the set a reflector of cluster ci stamps on routes
// carrying set a: a's attributes plus the ORIGINATOR_ID of their originator
// and the cluster's CLUSTER_LIST. It reports false for a set this cluster
// does not stamp: one already stamped, or one whose originator is no client
// of it. A set is looked up once per cluster and round, and found, not
// made, when an earlier round made it.
func (rd *round) stamped(a uint32, ci int) (uint32, bool) {
	if st, ok := rd.stamps[a]; ok {
		return st, true
	}
	m := rd.m
	set := *m.sets.at(a)
	if oc, isClient := m.clientClusterIdx[set.OriginPE]; set.Reflected != nil || !isClient || oc != ci {
		return 0, false
	}
	id := m.clusters[ci].ID
	probe := set
	probe.Reflected = &Reflection{OriginatorID: set.OriginPE, ClusterList: []uint32{id}}
	st, ok := m.find(&probe)
	if !ok {
		set.Reflected = rd.reflection(set.OriginPE, id)
		st = m.sets.add(set)
	}
	rd.stamps[a] = st
	return st, true
}

// reflection returns the Reflection the cluster with ID id stamps for
// originator o on the sets the round makes new: one per originator, and
// one CLUSTER_LIST for them all, while refls and list hold that cluster's.
func (rd *round) reflection(o topo.NodeID, id uint32) *Reflection {
	refl := rd.refls[o]
	if refl == nil {
		if rd.list == nil {
			rd.list = []uint32{id}
		}
		refl = &Reflection{OriginatorID: o, ClusterList: rd.list}
		rd.refls[o] = refl
	}
	return refl
}

// stamp returns the handle of the reflected copy of the route at h under
// the stamped set st: the same NLRI, one more entry of the table, which
// stampsAhead made room for.
func (rd *round) stamp(h, st uint32) uint32 {
	m := rd.m
	e := m.routes[h]
	e.attr = st
	m.routes = append(m.routes, e)
	rd.rank = append(rd.rank, rd.rank[h])
	return uint32(len(m.routes) - 1)
}

func clusterListHas(list []uint32, cid uint32) bool {
	for _, c := range list {
		if c == cid {
			return true
		}
	}
	return false
}

// stampsAhead bounds how many routes the next Converge stamps: the exports
// of the clients of every cluster.
func (m *Mesh) stampsAhead() int {
	n := 0
	for _, c := range m.clusters {
		for _, cl := range c.Clients {
			if s := m.speakers[cl]; s != nil {
				n += len(s.exports)
			}
		}
	}
	return n
}

// rrInterest computes a reflector's effective interest: the union of its
// own declaration and its clients'. A single undeclared participant means
// the reflector must receive everything (nil).
func (m *Mesh) rrInterest(c Cluster, rrn topo.NodeID) []addr.RouteTarget {
	if m.rtInterest == nil {
		return nil
	}
	union := make(map[addr.RouteTarget]bool)
	add := func(n topo.NodeID) bool {
		rts, ok := m.rtInterest[n]
		if !ok {
			return false
		}
		for _, rt := range rts {
			union[rt] = true
		}
		return true
	}
	// A pure-P reflector declares nothing of its own; that alone must not
	// widen its interest to "everything" — only clients can do that.
	add(rrn)
	for _, cl := range c.Clients {
		if !add(cl) {
			return nil // an undeclared client imports everything
		}
	}
	if len(union) == 0 {
		return nil
	}
	out := make([]addr.RouteTarget, 0, len(union))
	for rt := range union {
		out = append(out, rt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Admin != out[j].Admin {
			return out[i].Admin < out[j].Admin
		}
		return out[i].Assigned < out[j].Assigned
	})
	return out
}

// rtIndex buckets by route target what several senders offer, for
// sender-side constrained distribution. It holds runs, not routes: a
// sender's routes come in runs of one route-target list — a VRF exports its
// prefixes together, a run in prefix order holds a route distinguisher's
// together, and every route of one attribute set carries one list — so the
// index keeps each run as a slice of the sender's own exports or Adj-RIB-In,
// the senders' runs end to end, and per target the runs that carry it,
// ascending. Routes with no RT are sent to every receiver (they cannot be
// matched, only flooded). A round keeps one and refills it for every phase
// and cluster; the runs it holds are what the senders held when it was
// filled, whatever seals replace after.
type rtIndex struct {
	runs     [][]uint32
	ends     []int                        // where each sender's runs end in runs
	byRT     map[addr.RouteTarget][]int32 // runs, by index in runs
	untagged []int32
	// same[k] reports that sender k offers exactly what sender k-1 does, as
	// redundant reflectors of one cluster do.
	same []bool

	// selectFor's scratch: the result it hands out, and per run the epoch
	// of the call that last emitted it.
	out   []uint32
	mark  []uint32
	epoch uint32
	// view is add's scratch: the route keep is asked about.
	view VPNRoute
}

// reset empties the index, keeping its memory.
func (ix *rtIndex) reset() {
	ix.runs, ix.ends, ix.untagged, ix.same = ix.runs[:0], ix.ends[:0], ix.untagged[:0], ix.same[:0]
	if ix.byRT == nil {
		ix.byRT = make(map[addr.RouteTarget][]int32)
	}
	for rt, at := range ix.byRT {
		ix.byRT[rt] = at[:0]
	}
}

// add indexes one more sender: its exports, then the routes of its
// Adj-RIB-In whose attribute set keep (when given) accepts; keep, like an
// ImportFilter, reads only attributes and is asked once per run of one set.
// Stale-retained routes are kept for forwarding, not re-announced:
// refreshing them downstream would erase the peers' own graceful-restart
// marks. A route left out ends the run it would have been in.
func (ix *rtIndex) add(s *Speaker, keep func(*VPNRoute) bool) {
	m := s.mesh
	start := len(ix.runs)
	for src, from := range [2][]uint32{s.exports, s.rib.paths} {
		lo, open := 0, false // the open run is from[lo:i], while open
		var rts []addr.RouteTarget
		set, kept := ^uint32(0), true
		for i, h := range from {
			e := &m.routes[h]
			if e.attr != set {
				set = e.attr
				if src == 1 && keep != nil {
					m.view(h, &ix.view)
					kept = keep(&ix.view)
				}
				if open && !slices.Equal(rts, m.sets.at(set).RTs) {
					ix.file(from[lo:i], rts)
					open = false
				}
			}
			if !kept || src == 1 && len(s.stale) > 0 && s.isStale(e.Prefix, m.sets.at(set).OriginPE) {
				if open {
					ix.file(from[lo:i], rts)
					open = false
				}
				continue
			}
			if !open {
				lo, open, rts = i, true, m.sets.at(set).RTs
			}
		}
		if open {
			ix.file(from[lo:], rts)
		}
	}
	same := false
	if k := len(ix.ends); k > 0 {
		prev := ix.runs[:start]
		if k > 1 {
			prev = prev[ix.ends[k-2]:]
		}
		same = slices.EqualFunc(prev, ix.runs[start:], slices.Equal)
	}
	ix.same = append(ix.same, same)
	ix.ends = append(ix.ends, len(ix.runs))
}

// file adds run, whose routes carry the targets rts, to the index.
func (ix *rtIndex) file(run []uint32, rts []addr.RouteTarget) {
	id := int32(len(ix.runs))
	ix.runs = append(ix.runs, run)
	if len(rts) == 0 {
		ix.untagged = append(ix.untagged, id)
	}
	for _, rt := range rts {
		ix.byRT[rt] = append(ix.byRT[rt], id)
	}
}

// selectFor returns the routes sender k should offer a receiver with the
// given interest, each once: interest order, then index order, untagged
// last — the order same-prefix ties are broken by downstream. nil interest
// means everything. The result is valid until the next call.
//
// A run carries one target list, so the first target of the interest that
// one of its routes carries is the first for all of them: runs are emitted
// whole, and marked as emitted, not route by route.
func (ix *rtIndex) selectFor(k int, interest []addr.RouteTarget) []uint32 {
	lo, hi := 0, ix.ends[k]
	if k > 0 {
		lo = ix.ends[k-1]
	}
	out := ix.out[:0]
	if interest == nil {
		for _, run := range ix.runs[lo:hi] {
			out = append(out, run...)
		}
		ix.out = out
		return out
	}
	// sender picks sender k's runs out of an ascending list.
	sender := func(ids []int32) []int32 {
		i, _ := slices.BinarySearch(ids, int32(lo))
		j, _ := slices.BinarySearch(ids, int32(hi))
		return ids[i:j]
	}
	if len(ix.mark) < len(ix.runs) {
		ix.mark = make([]uint32, len(ix.runs)+len(ix.runs)/2)
		ix.epoch = 0
	}
	ix.epoch++
	for _, rt := range interest {
		for _, id := range sender(ix.byRT[rt]) {
			if ix.mark[id] != ix.epoch {
				ix.mark[id] = ix.epoch
				out = append(out, ix.runs[id]...)
			}
		}
	}
	for _, id := range sender(ix.untagged) {
		out = append(out, ix.runs[id]...)
	}
	ix.out = out
	return out
}

// convergeClustered is the Clustered arm of Converge: three deterministic
// phases that mirror steady-state reflection, each filling its receivers
// one at a time, every one in the order the sends reach it.
//
//  1. Every Up client sends its exports to every Up reflector of its
//     cluster. Reflection happens once, at the origin: each attribute set
//     is stamped on the way in, once per cluster, and the cluster's
//     reflectors hold one copy of each route under the stamped set.
//  2. Reflectors exchange over their full mesh: own exports plus stamped
//     client routes, RT-filtered per receiver. A receiving reflector
//     drops routes already carrying its cluster (redundant-RR loop) or
//     originated by itself.
//  3. Each reflector reflects everything it holds to its own Up clients,
//     RT-filtered; a client drops routes it originated.
//
// A phase indexes what its senders offer before it seals any receiver, so
// a reflector passes on what it held when the phase began. Receivers take
// what a sender offers one run of one attribute set at a time (offer), and
// a sender that offers exactly what the one before it did is counted but
// not heard twice (offerIndexed).
func (m *Mesh) convergeClustered(rd *round) {
	up := func(n topo.NodeID) bool { return m.StateOf(n) == PeerUp }

	// Phase 1: clients -> own-cluster reflectors, stamped.
	for ci := range m.clusters {
		c := &m.clusters[ci]
		if !slices.ContainsFunc(c.RRs, up) {
			continue
		}
		sent := rd.sent[:0]
		clear(rd.stamps)
		clear(rd.refls)
		rd.list = nil
		for _, cl := range c.Clients {
			if !up(cl) {
				continue
			}
			ex := m.speakers[cl].exports
			for i, j := 0, 0; i < len(ex); i = j {
				j = m.runEnd(ex, i)
				st, ok := rd.stamped(m.routes[ex[i]].attr, ci)
				if !ok {
					sent = append(sent, ex[i:j]...)
					continue
				}
				for _, h := range ex[i:j] {
					sent = append(sent, rd.stamp(h, st))
				}
			}
		}
		for _, rrn := range c.RRs {
			if up(rrn) {
				rr := m.speakers[rrn]
				rd.offer(rr, sent, nil, true)
				rd.seal(rr)
			}
		}
		rd.sent = sent
	}

	// Phase 2: reflector full mesh. The send set is exports plus stamped
	// own-cluster client routes — never routes learned from other
	// reflectors (a route from a non-client peer is reflected to clients
	// only), which is exactly why the reflectors must stay fully meshed.
	var rrs []topo.NodeID
	for _, c := range m.clusters {
		for _, rrn := range c.RRs {
			if up(rrn) {
				rrs = append(rrs, rrn)
			}
		}
	}
	slices.Sort(rrs)
	rd.ix.reset()
	for _, from := range rrs {
		cid := m.clusters[m.rrClusterIdx[from]].ID
		rd.ix.add(m.speakers[from], func(r *VPNRoute) bool { return r.Reflected != nil && r.Reflected.ClusterList[0] == cid })
	}
	for k, to := range rrs {
		tc := m.clusters[m.rrClusterIdx[to]]
		st := m.speakers[to]
		rd.offerIndexed(st, k, m.rrInterest(tc, to), &loopCheck{self: to, cluster: tc.ID, reflector: true}, true)
		rd.seal(st)
	}

	// Phase 3: reflect down to clients.
	for _, c := range m.clusters {
		rd.ix.reset()
		for _, rrn := range c.RRs {
			if up(rrn) {
				rd.ix.add(m.speakers[rrn], nil)
			}
		}
		for _, cl := range c.Clients {
			if !up(cl) {
				continue
			}
			sc := m.speakers[cl]
			rd.offerIndexed(sc, -1, m.rtInterest[cl], &loopCheck{self: cl}, false)
			rd.seal(sc)
		}
	}
}

// loopCheck is the loop prevention a receiver applies (RFC 4456): it drops
// a route it originated or one stamped with it as ORIGINATOR_ID, and a
// reflector one whose CLUSTER_LIST already carries its cluster.
type loopCheck struct {
	self      topo.NodeID
	cluster   uint32
	reflector bool
}

// drops reports whether routes with the attributes a loop back to l's
// receiver.
func (l *loopCheck) drops(a *attrs) bool {
	refl := a.Reflected
	return a.OriginPE == l.self || refl != nil && (refl.OriginatorID == l.self || l.reflector && clusterListHas(refl.ClusterList, l.cluster))
}

// offerIndexed offers s what every sender of the round's index but the one
// at skip selects for interest, sender by sender. A sender whose routes are
// those of the last sender offered — a redundant reflector of the same
// cluster — offers the same selection, which s would place over itself:
// it is counted as offered, as every update, loop drop and retained route
// of the first, and not offered again.
func (rd *round) offerIndexed(s *Speaker, skip int, interest []addr.RouteTarget, loops *loopCheck, bypassFilter bool) {
	m, ix := rd.m, &rd.ix
	last := -1
	var sent, dropped, received, retained int // the last offer's counts
	for k := range ix.ends {
		if k == skip {
			continue
		}
		if last >= 0 && !slices.Contains(ix.same[last+1:k+1], false) {
			m.UpdatesSent, m.LoopPrevented = m.UpdatesSent+sent, m.LoopPrevented+dropped
			s.Received, s.Retained = s.Received+received, s.Retained+retained
			continue
		}
		sent, dropped, received, retained = m.UpdatesSent, m.LoopPrevented, s.Received, s.Retained
		rd.offer(s, ix.selectFor(k, interest), loops, bypassFilter)
		sent, dropped, received, retained = m.UpdatesSent-sent, m.LoopPrevented-dropped, s.Received-received, s.Retained-retained
		last = k
	}
}
