// Package bgp emulates the MP-BGP machinery of RFC 2547 BGP/MPLS VPNs:
// PE routers exchange VPN-IPv4 routes (route distinguisher + prefix) with
// a VPN label piggybacked on each route — "The ISP's routing system
// distributes this information by piggybacking labels in the routing
// protocol updates" (§4) — and route-target extended communities that
// control VRF import. Sessions form either an iBGP full mesh or clustered
// route reflection (reflect.go), of which a single route reflector is the
// one-cluster case; the session-count difference feeds experiments E1 and
// E8.
//
// Best-path selection is a deterministic subset of the BGP decision
// process: LocalPref, then AS-path length, then lowest next hop.
//
// A mesh keeps every route it holds in one route table, and a speaker's
// exports, Adj-RIB-In and Loc-RIB are runs of 32-bit handles into it, kept
// in prefix order (rib.go), not maps: receivers share one route per
// announcement, so a retained route costs each holder four bytes and the
// collector nothing, and the checkpoint writes each distinct route once
// (snapshot.go). Converge fills receivers one at a time: a speaker's
// arrivals collect in one tail the call owns, and a seal sorts them, folds
// re-announcements and merges them into the run, which it then allocates
// once at its size. The sparse ledgers (stale marks, damping) stay maps.
package bgp

import (
	"fmt"
	"slices"
	"sort"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
)

// VPNRoute is one VPN-IPv4 NLRI with its attributes. A route that has
// entered a mesh is shared by every speaker holding it: do not modify it.
type VPNRoute struct {
	Prefix  addr.VPNPrefix
	NextHop addr.IPv4 // egress PE loopback (BGP next-hop-self)
	// Label is the VPN label the egress PE allocated for this route; the
	// ingress PE pushes it under the transport label.
	Label     packet.Label
	RTs       []addr.RouteTarget
	LocalPref int // higher wins; default 100
	ASPathLen int // shorter wins
	OriginPE  topo.NodeID

	// Reflected is what a route reflector stamped on this reflected copy,
	// nil on a route no reflector has stamped: a route is stamped iff
	// Reflected is non-nil. See reflect.go.
	Reflected *Reflection
}

// Reflection is the pair of attributes (RFC 4456) a route reflector stamps
// on a reflected copy: ORIGINATOR_ID and a non-empty CLUSTER_LIST. Every copy
// stamped for one originator in one cluster shares one Reflection, and
// nothing modifies it.
type Reflection struct {
	OriginatorID topo.NodeID
	ClusterList  []uint32
}

// HasRT reports whether the route carries the given route target.
func (r *VPNRoute) HasRT(rt addr.RouteTarget) bool {
	for _, x := range r.RTs {
		if x == rt {
			return true
		}
	}
	return false
}

func (r *VPNRoute) String() string {
	return fmt.Sprintf("%s via %s label %d", r.Prefix, r.NextHop, r.Label)
}

// better reports whether a wins over b in the decision process.
func better(a, b *VPNRoute) bool {
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	if a.ASPathLen != b.ASPathLen {
		return a.ASPathLen < b.ASPathLen
	}
	return a.NextHop < b.NextHop
}

// ImportFilter decides whether a speaker retains a received route. The VPN
// layer installs a filter that keeps routes whose RTs match some local
// VRF's import list — "automatic route filtering", which is what keeps
// each PE's table proportional to the VPNs it actually serves.
type ImportFilter func(*VPNRoute) bool

// Speaker is one PE's (or route reflector's) BGP state.
type Speaker struct {
	Node     topo.NodeID
	Loopback addr.IPv4

	// mesh is the mesh whose route table the handles below index.
	mesh *Mesh
	// exports are locally originated VPN routes (from attached VRFs), one
	// per prefix, in the order they were first originated. disordered is
	// false while they are known to ascend by prefix.
	exports    []uint32
	disordered bool
	// rib holds every retained route and the selected best per prefix.
	rib rib

	Filter ImportFilter

	// Received counts UPDATE NLRIs offered to this speaker; Retained
	// counts those kept after filtering (E1's table-size metric).
	Received int
	Retained int

	// stale marks (prefix, origin) routes retained under graceful restart
	// pending refresh or sweep (session.go).
	stale map[addr.VPNPrefix]map[topo.NodeID]bool

	// Route-flap damping ledger (session.go): per-prefix penalty state,
	// the received-prefix set after the last Converge, and prefixes whose
	// withdrawal is pending a re-announcement.
	damp        map[addr.VPNPrefix]*dampState
	prevHad     map[addr.VPNPrefix]bool
	flapPending map[addr.VPNPrefix]bool
}

// Originate adds (or replaces) a locally originated route. While the
// exports ascend by prefix, a route that sorts after the last of them is
// new and is appended without a scan: the common case of a VRF exporting
// its prefixes in order.
func (s *Speaker) Originate(r *VPNRoute) {
	routes := s.mesh.routes
	if n := len(s.exports); n == 0 || !s.disordered && byPrefix(routes[s.exports[n-1]], r) < 0 {
		s.exports = append(s.exports, s.mesh.add(r))
		return
	}
	for i, h := range s.exports {
		if routes[h].Prefix == r.Prefix {
			if routes[h] != r {
				s.exports[i] = s.mesh.add(r)
			}
			return
		}
	}
	// In order, r would have sorted after the last export or replaced one.
	s.disordered = true
	s.exports = append(s.exports, s.mesh.add(r))
}

// WithdrawLocal removes a locally originated route by prefix.
func (s *Speaker) WithdrawLocal(p addr.VPNPrefix) bool {
	for i, h := range s.exports {
		if s.mesh.routes[h].Prefix == p {
			s.exports = append(s.exports[:i], s.exports[i+1:]...)
			s.disordered = s.disordered && len(s.exports) > 0
			return true
		}
	}
	return false
}

// Topology selects the iBGP session layout.
type Topology int

// Session layouts.
const (
	FullMesh Topology = iota
	// Clustered partitions the PEs into reflection clusters with
	// (optionally redundant) reflectors meshed among themselves; see
	// reflect.go.
	Clustered
)

// Mesh is the set of iBGP speakers and their sessions.
type Mesh struct {
	Layout   Topology
	speakers map[topo.NodeID]*Speaker

	// routes is the route table: every route the mesh holds, by handle. A
	// route gets a handle when it enters the mesh — originated, stamped by
	// a reflector, or loaded — and every export and RIB run holds handles.
	// Converge and LoadState compact it to the routes something references.
	routes []*VPNRoute
	// renumber is a checkpoint save's scratch: per handle, one more than the
	// route's position in the section's route table (snapshot.go).
	renumber []int32

	// Clustered-reflection state (reflect.go): the canonicalized cluster
	// set, node -> cluster indexes for both roles, and declared RT
	// interest per speaker for constrained distribution.
	clusters         []Cluster
	rrClusterIdx     map[topo.NodeID]int
	clientClusterIdx map[topo.NodeID]int
	rtInterest       map[topo.NodeID][]addr.RouteTarget

	// UpdatesSent counts route transmissions (one NLRI to one peer).
	UpdatesSent int
	// LoopPrevented counts reflected routes a receiver dropped via
	// ORIGINATOR_ID / CLUSTER_LIST loop prevention.
	LoopPrevented int

	// Session machinery (session.go): per-node session state, the virtual
	// clock for damping decay, the damping thresholds, and the suppressed
	// prefixes pending journaling.
	peerState       map[topo.NodeID]PeerState
	clock           func() sim.Time
	damping         DampingConfig
	newlySuppressed []addr.VPNPrefix

	// Survivability counters (session.go).
	SessionFlaps      int
	StaleRetained     int
	StaleSwept        int
	WithdrawalsSent   int
	RouteSuppressions int
	RouteReuses       int
}

// NewMesh creates an empty full-mesh iBGP domain.
func NewMesh() *Mesh {
	return &Mesh{Layout: FullMesh, speakers: make(map[topo.NodeID]*Speaker)}
}

// AddSpeaker registers a PE (or RR) with its loopback.
func (m *Mesh) AddSpeaker(n topo.NodeID, loopback addr.IPv4) *Speaker {
	s := &Speaker{Node: n, Loopback: loopback, mesh: m}
	m.speakers[n] = s
	return s
}

// add enters r into the route table and returns its handle.
func (m *Mesh) add(r *VPNRoute) uint32 {
	m.routes = append(m.routes, r)
	return uint32(len(m.routes) - 1)
}

// compact renumbers the route table down to the routes some export or run
// references, in the order of their handles, and rewrites every run. The
// table is allocated at its size plus room for extra more routes: what it
// held beyond that was garbage. to, of at least the table's length, is
// scratch.
func (m *Mesh) compact(extra int, to []uint32) {
	to = to[:len(m.routes)] // per handle, one more than the new one; 0: unreferenced
	clear(to)
	runs := func(s *Speaker) [3][]uint32 { return [3][]uint32{s.exports, s.rib.paths, s.rib.best} }
	for _, s := range m.speakers {
		for _, run := range runs(s) {
			for _, h := range run {
				to[h] = 1
			}
		}
	}
	n := uint32(0)
	for h, live := range to {
		if live != 0 {
			n++
			to[h] = n
		}
	}
	if int(n) == len(m.routes) {
		m.routes = slices.Grow(m.routes, extra)
		return
	}
	routes := make([]*VPNRoute, n, int(n)+extra)
	for h, k := range to {
		if k != 0 {
			routes[k-1] = m.routes[h]
		}
	}
	m.routes = routes
	for _, s := range m.speakers {
		for _, run := range runs(s) {
			for i, h := range run {
				run[i] = to[h] - 1
			}
		}
	}
}

// Speaker returns the speaker at node n.
func (m *Mesh) Speaker(n topo.NodeID) (*Speaker, bool) {
	s, ok := m.speakers[n]
	return s, ok
}

// SessionCount returns the number of iBGP sessions the layout needs —
// the §2.1 scaling story applied to the control plane: full mesh is
// n(n-1)/2, and clustered reflection is one session per (client,
// own-cluster RR) pair plus the reflector mesh — n-1 for a single reflector.
func (m *Mesh) SessionCount() int {
	n := len(m.speakers)
	switch m.Layout {
	case Clustered:
		sessions, rrs := 0, 0
		for _, c := range m.clusters {
			sessions += len(c.Clients) * len(c.RRs)
			rrs += len(c.RRs)
		}
		return sessions + rrs*(rrs-1)/2
	}
	return n * (n - 1) / 2
}

func (m *Mesh) sortedIDs() []topo.NodeID {
	ids := make([]topo.NodeID, 0, len(m.speakers))
	for n := range m.speakers {
		ids = append(ids, n)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Converge redistributes all originated routes over the session topology
// and reruns best-path selection everywhere. It is a full recomputation:
// callers re-converge after originating or withdrawing routes, mirroring
// the steady state a real incremental protocol reaches.
//
// Sessions gate the exchange: a Down or Restarting speaker neither sends
// nor receives (its RIB stays empty until re-establishment), and Up
// speakers keep stale-retained routes across the round so a graceful
// restart can refresh them in place.
//
// The round starts from the route table compacted to what the exports and
// the stale-retained routes reference, and leaves it holding only what some
// export or run references.
func (m *Mesh) Converge() {
	for _, s := range m.speakers {
		if m.StateOf(s.Node) == PeerUp {
			s.clearAdjRIBKeepStale()
			s.rib.best = nil // every speaker's is selected anew below
		} else {
			s.rib = rib{}
			s.stale = nil
		}
		s.Received = 0
		s.Retained = 0
	}
	scratch, stamps := make([]uint32, len(m.routes)), m.stampsAhead()
	m.compact(stamps, scratch)
	ids := m.sortedIDs()
	rd := m.newRound(scratch, stamps)
	switch m.Layout {
	case FullMesh:
		for _, to := range ids {
			if m.StateOf(to) != PeerUp {
				continue
			}
			st := m.speakers[to]
			for _, from := range ids {
				if from == to || m.StateOf(from) != PeerUp {
					continue
				}
				ex := m.speakers[from].exports
				for _, h := range ex {
					rd.receive(st, h, false)
				}
				m.UpdatesSent += len(ex)
			}
			rd.seal(st)
		}
	case Clustered:
		m.convergeClustered(&rd)
	}
	now := m.now()
	for _, id := range ids {
		s := m.speakers[id]
		if m.StateOf(id) == PeerUp {
			s.updateDamping(m, now)
		}
		s.selectBest(rd.rank)
	}
	if rd.displaced {
		m.compact(0, make([]uint32, len(m.routes)))
	}
}
