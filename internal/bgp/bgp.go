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
// A speaker's Adj-RIB-In and Loc-RIB are two slices of route pointers kept
// in prefix order (rib.go), not maps: receivers share one *VPNRoute per
// announcement, so a retained route costs each holder eight bytes, and the
// checkpoint writes each distinct route once (snapshot.go). Converge appends
// what a speaker receives to an unsorted tail and seals the speaker —
// sort, fold re-announcements, merge — at the points where its RIB is next
// read. The sparse ledgers (stale marks, damping) stay maps.
package bgp

import (
	"fmt"
	"sort"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
)

// VPNRoute is one VPN-IPv4 NLRI with its attributes.
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

	// Reflection attributes (RFC 4456), set when a route reflector stamps
	// a reflected copy. A route is stamped iff ClusterList is non-empty;
	// OriginatorID is meaningful only then. See reflect.go.
	OriginatorID topo.NodeID
	ClusterList  []uint32

	// slot is scratch of a checkpoint being written: where the route stands
	// in the section's route table (snapshot.go). It means nothing outside a
	// save and fits in the padding of the route's allocation size class.
	slot int
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

	// exports are locally originated VPN routes (from attached VRFs).
	exports []*VPNRoute
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

// Originate adds (or replaces) a locally originated route.
func (s *Speaker) Originate(r *VPNRoute) {
	for i, e := range s.exports {
		if e.Prefix == r.Prefix {
			s.exports[i] = r
			return
		}
	}
	s.exports = append(s.exports, r)
}

// WithdrawLocal removes a locally originated route by prefix.
func (s *Speaker) WithdrawLocal(p addr.VPNPrefix) bool {
	for i, e := range s.exports {
		if e.Prefix == p {
			s.exports = append(s.exports[:i], s.exports[i+1:]...)
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
	s := &Speaker{Node: n, Loopback: loopback}
	m.speakers[n] = s
	return s
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
func (m *Mesh) Converge() {
	for _, s := range m.speakers {
		if m.StateOf(s.Node) == PeerUp {
			s.clearAdjRIBKeepStale()
		} else {
			s.rib = rib{}
			s.stale = nil
		}
		s.Received = 0
		s.Retained = 0
	}
	ids := m.sortedIDs()
	switch m.Layout {
	case FullMesh:
		for _, from := range ids {
			if m.StateOf(from) != PeerUp {
				continue
			}
			sf := m.speakers[from]
			for _, to := range ids {
				if to == from || m.StateOf(to) != PeerUp {
					continue
				}
				for _, r := range sf.exports {
					m.speakers[to].receive(r, false)
					m.UpdatesSent++
				}
			}
		}
	case Clustered:
		m.convergeClustered()
	}
	now := m.now()
	for _, id := range ids {
		s := m.speakers[id]
		s.seal()
		if m.StateOf(id) == PeerUp {
			s.updateDamping(m, now)
		}
		s.selectBest()
	}
}
