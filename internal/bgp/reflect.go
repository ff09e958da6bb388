// Clustered route reflection (RFC 4456) with RT-constrained distribution
// (in the spirit of RFC 4684). The full iBGP mesh needs n(n-1)/2 sessions
// — the control-plane face of the paper's §2.1 scaling argument — and a
// single reflector merely moves the hot spot. Clusters split the PE
// population into regions: each client peers with its region's
// reflector(s), and only the reflectors form a full mesh among
// themselves, so sessions drop from O(n²) to O(n·clusters).
//
// Reflection stamps each route once, at its origin cluster: the reflector
// sets ORIGINATOR_ID to the originating PE and seeds CLUSTER_LIST with
// its own cluster ID. Receivers drop looping routes — a reflector drops a
// route whose CLUSTER_LIST already carries its cluster (the redundant-RR
// loop), any speaker drops a route originated by itself. A route is
// "stamped" iff its CLUSTER_LIST is non-empty; clients never
// re-advertise here, so the list never grows past its origin cluster and
// reflected copies stay O(routes), not O(routes · clusters).
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

// stamp returns the reflected copy of r for its origin cluster: the
// original attributes plus ORIGINATOR_ID and the cluster's CLUSTER_LIST,
// which every copy of one round shares (nothing ever appends to it).
// Already-stamped routes pass through.
func stamp(r *VPNRoute, list []uint32) *VPNRoute {
	if len(r.ClusterList) > 0 {
		return r
	}
	c := *r
	c.OriginatorID = r.OriginPE
	c.ClusterList = list
	return &c
}

func clusterListHas(list []uint32, cid uint32) bool {
	for _, c := range list {
		if c == cid {
			return true
		}
	}
	return false
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

// rtIndex buckets routes by route target for sender-side constrained
// distribution. Routes with no RT land in the catch-all bucket and are
// sent to every receiver (they cannot be matched, only flooded).
type rtIndex struct {
	all      []*VPNRoute
	byRT     map[addr.RouteTarget][]int32 // positions in all
	untagged []*VPNRoute

	// selectFor's scratch: the result it hands out, and per position in all
	// the epoch of the call that last emitted it.
	out   []*VPNRoute
	mark  []uint32
	epoch uint32
}

func buildRTIndex(routes []*VPNRoute) *rtIndex {
	ix := &rtIndex{all: routes, byRT: make(map[addr.RouteTarget][]int32), mark: make([]uint32, len(routes))}
	for i, r := range routes {
		if len(r.RTs) == 0 {
			ix.untagged = append(ix.untagged, r)
			continue
		}
		for _, rt := range r.RTs {
			ix.byRT[rt] = append(ix.byRT[rt], int32(i))
		}
	}
	return ix
}

// selectFor returns the routes a receiver with the given interest should
// be offered, each once: interest order, then index order, untagged last —
// the order same-prefix ties are broken by downstream. nil interest means
// everything. The result is valid until the next call.
func (ix *rtIndex) selectFor(interest []addr.RouteTarget) []*VPNRoute {
	if interest == nil {
		return ix.all
	}
	ix.epoch++
	out := ix.out[:0]
	for _, rt := range interest {
		for _, i := range ix.byRT[rt] {
			if ix.mark[i] != ix.epoch {
				ix.mark[i] = ix.epoch
				out = append(out, ix.all[i])
			}
		}
	}
	out = append(out, ix.untagged...)
	ix.out = out
	return out
}

// convergeClustered is the Clustered arm of Converge: three deterministic
// phases that mirror steady-state reflection.
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
// A speaker is sealed before its RIB is next read: a reflector after each
// phase that fed it, a cluster's clients once its reflectors have sent.
func (m *Mesh) convergeClustered() {
	up := func(n topo.NodeID) bool { return m.StateOf(n) == PeerUp }

	// Phase 1: clients -> own-cluster reflectors, stamped.
	for ci := range m.clusters {
		c := &m.clusters[ci]
		var rrs []*Speaker
		for _, rrn := range c.RRs {
			if up(rrn) {
				rrs = append(rrs, m.speakers[rrn])
			}
		}
		list := []uint32{c.ID}
		for _, cl := range c.Clients {
			if !up(cl) || len(rrs) == 0 {
				continue
			}
			for _, r := range m.speakers[cl].exports {
				if oc, isClient := m.clientClusterIdx[r.OriginPE]; isClient && oc == ci {
					r = stamp(r, list)
				}
				for _, rr := range rrs {
					rr.receive(r, true)
					m.UpdatesSent++
				}
			}
		}
		for _, rr := range rrs {
			rr.seal()
		}
	}

	// Phase 2: reflector full mesh. The send set is exports plus stamped
	// own-cluster client routes — never routes learned from other
	// reflectors (a route from a non-client peer is reflected to clients
	// only), which is exactly why the reflectors must stay fully meshed.
	var rrs []topo.NodeID
	for _, c := range m.clusters {
		rrs = append(rrs, c.RRs...)
	}
	sort.Slice(rrs, func(i, j int) bool { return rrs[i] < rrs[j] })
	interest := make(map[topo.NodeID][]addr.RouteTarget, len(rrs))
	for _, rrn := range rrs {
		interest[rrn] = m.rrInterest(m.clusters[m.rrClusterIdx[rrn]], rrn)
	}
	for _, from := range rrs {
		if !up(from) {
			continue
		}
		sf := m.speakers[from]
		cid := m.clusters[m.rrClusterIdx[from]].ID
		// What this phase has already delivered to sf sits in its tail, out
		// of reach: none of it is sf's to pass on.
		sendable := append([]*VPNRoute(nil), sf.exports...)
		for _, r := range sf.rib.paths[:sf.rib.sealed] {
			// Stale-retained routes are kept for forwarding, not
			// re-announced: refreshing them downstream would erase the
			// peers' own graceful-restart marks.
			if len(r.ClusterList) > 0 && r.ClusterList[0] == cid && !sf.isStale(r.Prefix, r.OriginPE) {
				sendable = append(sendable, r)
			}
		}
		ix := buildRTIndex(sendable)
		for _, to := range rrs {
			if to == from || !up(to) {
				continue
			}
			tcid := m.clusters[m.rrClusterIdx[to]].ID
			st := m.speakers[to]
			for _, r := range ix.selectFor(interest[to]) {
				m.UpdatesSent++
				if len(r.ClusterList) > 0 && (r.OriginatorID == to || clusterListHas(r.ClusterList, tcid)) {
					m.LoopPrevented++
					continue
				}
				if r.OriginPE == to {
					m.LoopPrevented++
					continue
				}
				st.receive(r, true)
			}
		}
	}

	// Phase 3: reflect down to clients.
	for ci := range m.clusters {
		c := &m.clusters[ci]
		for _, rrn := range c.RRs {
			if !up(rrn) {
				continue
			}
			rr := m.speakers[rrn]
			rr.seal()
			ix := buildRTIndex(rr.announced())
			for _, cl := range c.Clients {
				if !up(cl) {
					continue
				}
				var want []addr.RouteTarget
				if m.rtInterest != nil {
					want = m.rtInterest[cl]
				}
				sc := m.speakers[cl]
				for _, r := range ix.selectFor(want) {
					m.UpdatesSent++
					if len(r.ClusterList) > 0 && r.OriginatorID == cl {
						m.LoopPrevented++
						continue
					}
					if r.OriginPE == cl {
						m.LoopPrevented++
						continue
					}
					sc.receive(r, false)
				}
			}
		}
		for _, cl := range c.Clients {
			if up(cl) {
				m.speakers[cl].seal()
			}
		}
	}
}
