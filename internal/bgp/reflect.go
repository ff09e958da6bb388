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
// Reflection stamps each route once, at its origin cluster: the reflector
// sets ORIGINATOR_ID to the originating PE and seeds CLUSTER_LIST with
// its own cluster ID. Receivers drop looping routes — a reflector drops a
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

// stampChunk is how many stamped copies a round allocates at a time: 102
// routes of 80 bytes fill an 8 KB size class as closely as one route fills
// the 80-byte one.
const stampChunk = 102

// stamp returns the handle of the reflected copy of the route at h: the
// original attributes plus refl, the ORIGINATOR_ID and CLUSTER_LIST of its
// originator in the cluster reflecting it. An already-stamped route passes
// through. Copies come out of chunks of stampChunk, never more in all than
// the stampsAhead the round began with: a copy keeps its chunk reachable,
// which costs only while a stale-retained copy outlives its round.
func (rd *round) stamp(h uint32, refl *Reflection) uint32 {
	r := rd.m.routes[h]
	if r.Reflected != nil {
		return h
	}
	if len(rd.copies) == 0 {
		rd.copies = make([]VPNRoute, min(rd.stampsLeft, stampChunk))
	}
	c := &rd.copies[0]
	rd.copies, rd.stampsLeft = rd.copies[1:], rd.stampsLeft-1
	*c = *r
	c.Reflected = refl
	rd.rank = append(rd.rank, rd.rank[h])
	return rd.m.add(c)
}

// reflection returns the Reflection of originator o in the cluster whose
// CLUSTER_LIST is list: one per originator, while refls holds that cluster's.
func (rd *round) reflection(o topo.NodeID, list []uint32) *Reflection {
	refl := rd.refls[o]
	if refl == nil {
		refl = &Reflection{OriginatorID: o, ClusterList: list}
		rd.refls[o] = refl
	}
	return refl
}

func clusterListHas(list []uint32, cid uint32) bool {
	for _, c := range list {
		if c == cid {
			return true
		}
	}
	return false
}

// stampsAhead bounds how many copies the next Converge stamps: the exports
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
// sender-side constrained distribution: the senders' routes end to end in
// all, and per target their positions there, ascending. Routes with no RT
// are sent to every receiver (they cannot be matched, only flooded). A
// round keeps one and refills it for every phase and cluster.
type rtIndex struct {
	all      []uint32                     // route handles
	ends     []int                        // where each sender's routes end in all
	byRT     map[addr.RouteTarget][]int32 // positions in all
	untagged []int32

	// selectFor's scratch: the result it hands out, and per position in all
	// the epoch of the call that last emitted it.
	out   []uint32
	mark  []uint32
	epoch uint32
}

// reset empties the index, keeping its memory, for the speakers at ns to
// add themselves. It makes room at once for all they could offer: growing
// by appends would leave garbage several times the index's size.
func (ix *rtIndex) reset(m *Mesh, ns []topo.NodeID) {
	n := 0
	for _, id := range ns {
		n += len(m.speakers[id].exports) + len(m.speakers[id].rib.paths)
	}
	ix.all, ix.ends, ix.untagged = slices.Grow(ix.all[:0], n), ix.ends[:0], ix.untagged[:0]
	if len(ix.mark) < n {
		ix.mark = make([]uint32, n)
	}
	if ix.byRT == nil {
		ix.byRT = make(map[addr.RouteTarget][]int32)
	}
	for rt, at := range ix.byRT {
		ix.byRT[rt] = at[:0]
	}
}

// add indexes one more sender: its exports, then the routes of its
// Adj-RIB-In that keep (when given) accepts. Stale-retained routes are kept
// for forwarding, not re-announced: refreshing them downstream would erase
// the peers' own graceful-restart marks.
//
// A sender's routes come in runs of one target — a VRF exports its
// prefixes together, and a run in prefix order holds a route
// distinguisher's together — so the bucket of a run is looked up once, as
// the run opens, and stored back once, as it closes: a route with the
// target of the open run and no other is filed without hashing it.
func (ix *rtIndex) add(s *Speaker, keep func(*VPNRoute) bool) {
	routes := s.mesh.routes
	var rt addr.RouteTarget // the open run's target, while open
	var run []int32         // its bucket, nil while no run is open
	closeRun := func() {
		if run != nil {
			ix.byRT[rt], run = run, nil
		}
	}
	put := func(h uint32, r *VPNRoute) {
		at := int32(len(ix.all))
		ix.all = append(ix.all, h)
		if len(r.RTs) == 1 {
			if run == nil || r.RTs[0] != rt {
				closeRun()
				rt, run = r.RTs[0], ix.byRT[r.RTs[0]]
			}
			run = append(run, at)
			return
		}
		closeRun()
		if len(r.RTs) == 0 {
			ix.untagged = append(ix.untagged, at)
		}
		for _, t := range r.RTs {
			ix.byRT[t] = append(ix.byRT[t], at)
		}
	}
	for _, h := range s.exports {
		put(h, routes[h])
	}
	for _, h := range s.rib.paths {
		if r := routes[h]; (keep == nil || keep(r)) && (len(s.stale) == 0 || !s.isStale(r.Prefix, r.OriginPE)) {
			put(h, r)
		}
	}
	closeRun()
	ix.ends = append(ix.ends, len(ix.all))
}

// selectFor returns the routes sender k should offer a receiver with the
// given interest, each once: interest order, then index order, untagged
// last — the order same-prefix ties are broken by downstream. nil interest
// means everything. The result is valid until the next call.
func (ix *rtIndex) selectFor(k int, interest []addr.RouteTarget) []uint32 {
	lo, hi := 0, ix.ends[k]
	if k > 0 {
		lo = ix.ends[k-1]
	}
	if interest == nil {
		return ix.all[lo:hi]
	}
	// sender picks sender k's positions out of an ascending list.
	sender := func(at []int32) []int32 {
		i, _ := slices.BinarySearch(at, int32(lo))
		j, _ := slices.BinarySearch(at, int32(hi))
		return at[i:j]
	}
	ix.epoch++
	out := ix.out[:0]
	for _, rt := range interest {
		for _, i := range sender(ix.byRT[rt]) {
			if ix.mark[i] != ix.epoch {
				ix.mark[i] = ix.epoch
				out = append(out, ix.all[i])
			}
		}
	}
	for _, i := range sender(ix.untagged) {
		out = append(out, ix.all[i])
	}
	ix.out = out
	return out
}

// convergeClustered is the Clustered arm of Converge: three deterministic
// phases that mirror steady-state reflection, each filling its receivers
// one at a time, every one in the order the sends reach it.
//
//  1. Every Up client sends its exports to every Up reflector of its
//     cluster. Reflection happens once, at the origin: the route is stamped
//     on the way in and the cluster's reflectors hold that one copy.
//  2. Reflectors exchange over their full mesh: own exports plus stamped
//     client routes, RT-filtered per receiver. A receiving reflector
//     drops routes already carrying its cluster (redundant-RR loop) or
//     originated by itself.
//  3. Each reflector reflects everything it holds to its own Up clients,
//     RT-filtered; a client drops routes it originated.
//
// A phase indexes what its senders offer before it seals any receiver, so
// a reflector passes on what it held when the phase began.
func (m *Mesh) convergeClustered(rd *round) {
	up := func(n topo.NodeID) bool { return m.StateOf(n) == PeerUp }

	// Phase 1: clients -> own-cluster reflectors, stamped.
	for ci := range m.clusters {
		c := &m.clusters[ci]
		if !slices.ContainsFunc(c.RRs, up) {
			continue
		}
		list, sent := []uint32{c.ID}, rd.sent[:0]
		clear(rd.refls)
		for _, cl := range c.Clients {
			if !up(cl) {
				continue
			}
			for _, h := range m.speakers[cl].exports {
				o := m.routes[h].OriginPE
				if oc, isClient := m.clientClusterIdx[o]; isClient && oc == ci {
					h = rd.stamp(h, rd.reflection(o, list))
				}
				sent = append(sent, h)
			}
		}
		for _, rrn := range c.RRs {
			if up(rrn) {
				rr := m.speakers[rrn]
				for _, h := range sent {
					rd.receive(rr, h, true)
				}
				m.UpdatesSent += len(sent)
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
	rd.ix.reset(m, rrs)
	for _, from := range rrs {
		cid := m.clusters[m.rrClusterIdx[from]].ID
		rd.ix.add(m.speakers[from], func(r *VPNRoute) bool { return r.Reflected != nil && r.Reflected.ClusterList[0] == cid })
	}
	for _, to := range rrs {
		tc := m.clusters[m.rrClusterIdx[to]]
		want, st := m.rrInterest(tc, to), m.speakers[to]
		for k, from := range rrs {
			if from == to {
				continue
			}
			for _, h := range rd.ix.selectFor(k, want) {
				m.UpdatesSent++
				r := m.routes[h]
				if refl := r.Reflected; (refl != nil && (refl.OriginatorID == to || clusterListHas(refl.ClusterList, tc.ID))) || r.OriginPE == to {
					m.LoopPrevented++
					continue
				}
				rd.receive(st, h, true)
			}
		}
		rd.seal(st)
	}

	// Phase 3: reflect down to clients.
	for _, c := range m.clusters {
		rd.ix.reset(m, c.RRs)
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
			for k := range rd.ix.ends {
				for _, h := range rd.ix.selectFor(k, m.rtInterest[cl]) {
					m.UpdatesSent++
					if r := m.routes[h]; (r.Reflected != nil && r.Reflected.OriginatorID == cl) || r.OriginPE == cl {
						m.LoopPrevented++
						continue
					}
					rd.receive(sc, h, false)
				}
			}
			rd.seal(sc)
		}
	}
}
