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
// A mesh keeps every route it holds in one route table, as an UPDATE
// carries it (RFC 4271 §4.3): a 24-byte, pointer-free NLRI entry (prefix,
// label) naming one interned set of path attributes that many entries
// share. A speaker's exports, Adj-RIB-In and Loc-RIB are runs of 32-bit
// handles into the table, kept in prefix order (rib.go), not maps:
// receivers share one route per announcement, so a retained route costs
// each holder four bytes and the collector nothing, and the checkpoint
// writes each distinct route once (snapshot.go). Converge fills receivers
// one at a time, a sender's routes one attribute set at a time: the filter,
// the loop check and the reflection stamp run once per set, a receiver's
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

// VPNRoute is one VPN-IPv4 route: the NLRI (prefix and label, RFC 8277)
// and its path attributes. It is how a route enters a mesh (Originate) and
// how one leaves it (Best, BestRoutes); the mesh keeps no VPNRoute, but an
// entry under a shared attribute set (see entry). A route handed out is a
// view of one: the caller may keep it, but RTs and Reflected are the set's
// and must not be modified.
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
// on a reflected copy: ORIGINATOR_ID and a non-empty CLUSTER_LIST. Each
// stamped attribute set holds one, and nothing modifies it.
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

// entry is one NLRI of a mesh's route table, as an UPDATE carries it (RFC
// 4271 §4.3): the prefix and the label, under the attribute set it names.
// It is 24 bytes and holds no pointer.
type entry struct {
	Prefix addr.VPNPrefix
	Label  packet.Label
	attr   uint32 // index of its attribute set in Mesh.sets
}

// attrs is one set of path attributes, shared by every entry that carries
// it: interned per mesh (Mesh.find, setTable.add), so two entries with
// equal attributes name one set, and never modified. Its RTs and Reflected
// are shared with the VPNRoute views built from it.
type attrs struct {
	NextHop   addr.IPv4
	RTs       []addr.RouteTarget
	LocalPref int
	ASPathLen int
	OriginPE  topo.NodeID
	Reflected *Reflection
}

// better reports whether a route with attributes a wins over one with b in
// the decision process.
func better(a, b *attrs) bool {
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
//
// A filter reads only the route's attributes, never its prefix or label:
// it is asked once per attribute set a sender offers, and its answer holds
// for every route under that set. The route it is handed is valid only for
// the call.
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
	// bestIsUnion says that the selection is every export and retained
	// route — each prefix is held by one route and none is suppressed — and
	// rib.best then holds no second copy of the two runs, only the exports
	// in prefix order when they are disordered.
	rib         rib
	bestIsUnion bool

	// Filter, when set, decides which received routes the speaker retains.
	// Like every ImportFilter it reads only attributes: Converge asks it once
	// per attribute set a sender offers, about the first route of the set.
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
// its prefixes in order. The mesh keeps r's attributes in an interned set:
// a new set keeps r's RTs and Reflected, which must not be modified after,
// and nothing else of r.
func (s *Speaker) Originate(r *VPNRoute) {
	s.freezeBest()
	routes := s.mesh.routes
	if n := len(s.exports); n == 0 || !s.disordered && addr.CompareVPNPrefix(routes[s.exports[n-1]].Prefix, r.Prefix) < 0 {
		s.exports = append(s.exports, s.mesh.add(r))
		return
	}
	for i, h := range s.exports {
		if routes[h].Prefix == r.Prefix {
			s.exports[i] = s.mesh.add(r)
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
			s.freezeBest()
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

	// routes is the route table: every route the mesh holds, by handle, as
	// an entry under one of sets. A route gets a handle when it enters the
	// mesh — originated, stamped by a reflector, or loaded — and every
	// export and RIB run holds handles. Converge and LoadState compact it to
	// the routes something references, and sets to the sets those carry.
	routes []entry
	sets   setTable
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
	a := attrs{r.NextHop, r.RTs, r.LocalPref, r.ASPathLen, r.OriginPE, r.Reflected}
	i, ok := m.find(&a)
	if !ok {
		i = m.sets.add(a)
	}
	// A full table doubles, where append would grow it by a quarter and
	// leave four times its size behind as garbage.
	if len(m.routes) == cap(m.routes) {
		m.routes = slices.Grow(m.routes, max(len(m.routes), 64))
	}
	m.routes = append(m.routes, entry{r.Prefix, r.Label, i})
	return uint32(len(m.routes) - 1)
}

// hashOf mixes an attribute set's attributes (FNV-1a over 64-bit words):
// equal sets hash alike.
func hashOf(a *attrs) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	mix(uint64(a.NextHop)<<32 | uint64(uint32(a.OriginPE)))
	mix(uint64(a.LocalPref))
	mix(uint64(a.ASPathLen))
	for _, rt := range a.RTs {
		mix(uint64(rt.Admin)<<32 | uint64(rt.Assigned))
	}
	if refl := a.Reflected; refl != nil {
		mix(uint64(refl.OriginatorID) | 1<<63)
		for _, id := range refl.ClusterList {
			mix(uint64(id))
		}
	}
	return h ^ h>>32
}

// equal reports whether two attribute sets hold equal attributes.
func (a *attrs) equal(b *attrs) bool {
	if a.NextHop != b.NextHop || a.LocalPref != b.LocalPref || a.ASPathLen != b.ASPathLen ||
		a.OriginPE != b.OriginPE || !slices.Equal(a.RTs, b.RTs) || (a.Reflected == nil) != (b.Reflected == nil) {
		return false
	}
	return a.Reflected == nil || a.Reflected.OriginatorID == b.Reflected.OriginatorID &&
		slices.Equal(a.Reflected.ClusterList, b.Reflected.ClusterList)
}

// setChunk is how many attribute sets a setTable allocates at a time.
const setChunk = 128

// setTable holds a mesh's attribute sets, each once, by index. The sets sit
// in chunks of setChunk that never move, so a table grows without leaving
// its old arrays behind as garbage: where a set holds one route, as in a
// mesh whose every prefix has a label of its own, that garbage would be
// more than the sets. slots finds a set by its attributes: open addressing
// on hashOf, at most half full, each slot one more than a set's index or 0.
type setTable struct {
	chunks []*[setChunk]attrs
	n      int
	slots  []uint32
}

// at returns set i.
func (t *setTable) at(i uint32) *attrs { return &t.chunks[i/setChunk][i%setChunk] }

// find returns the index of the set that holds a's attributes.
func (t *setTable) find(a *attrs) (uint32, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for k := hashOf(a) & mask; ; k = (k + 1) & mask {
		v := t.slots[k]
		if v == 0 || t.at(v-1).equal(a) {
			return v - 1, v != 0
		}
	}
}

// add enters a, which find did not find, and returns its index. The set
// keeps a's lists.
func (t *setTable) add(a attrs) uint32 {
	if t.n%setChunk == 0 {
		t.chunks = append(t.chunks, new([setChunk]attrs))
	}
	t.chunks[t.n/setChunk][t.n%setChunk] = a
	t.n++
	if 2*t.n > len(t.slots) {
		t.slots = make([]uint32, max(2*len(t.slots), 64))
		for i := 0; i < t.n; i++ {
			t.slot(uint32(i))
		}
	} else {
		t.slot(uint32(t.n - 1))
	}
	return uint32(t.n - 1)
}

// slot files set i in the first free slot from its hash.
func (t *setTable) slot(i uint32) {
	mask := uint64(len(t.slots) - 1)
	k := hashOf(t.at(i)) & mask
	for t.slots[k] != 0 {
		k = (k + 1) & mask
	}
	t.slots[k] = i + 1
}

// find returns the index of m's set that holds a's attributes. It asks the
// set of the table's last entry first — a VRF exports its prefixes, and a
// checkpoint lists an origin's routes, as one run of one set — and hashes
// only when the run breaks.
func (m *Mesh) find(a *attrs) (uint32, bool) {
	if n := len(m.routes); n > 0 {
		if i := m.routes[n-1].attr; m.sets.at(i).equal(a) {
			return i, true
		}
	}
	return m.sets.find(a)
}

// attrsOf returns the attribute set of the route at h.
func (m *Mesh) attrsOf(h uint32) *attrs { return m.sets.at(m.routes[h].attr) }

// originOf returns the origin PE of the route at h.
func (m *Mesh) originOf(h uint32) topo.NodeID { return m.attrsOf(h).OriginPE }

// view writes the route at h into r, as a VPNRoute sharing its set's lists.
func (m *Mesh) view(h uint32, r *VPNRoute) {
	e := &m.routes[h]
	a := m.sets.at(e.attr)
	r.Prefix, r.Label = e.Prefix, e.Label
	r.NextHop, r.RTs, r.LocalPref, r.ASPathLen, r.OriginPE, r.Reflected = a.NextHop, a.RTs, a.LocalPref, a.ASPathLen, a.OriginPE, a.Reflected
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
		if cap(m.routes) < int(n)+extra {
			m.routes = append(make([]entry, 0, int(n)+extra), m.routes...)
		}
		return
	}
	routes := make([]entry, n, int(n)+extra)
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

// compactSets drops the sets no route carries and renumbers the rest in
// order. Converge runs it at its end, not with the compaction it starts
// with: a set its stamping would make again, it finds instead.
func (m *Mesh) compactSets() {
	to := make([]uint32, m.sets.n) // per set, one more than the new index; 0: unreferenced
	for _, e := range m.routes {
		to[e.attr] = 1
	}
	if !slices.Contains(to, 0) {
		return
	}
	var sets setTable
	for i, live := range to {
		if live != 0 {
			to[i] = sets.add(*m.sets.at(uint32(i))) + 1
		}
	}
	m.sets = sets
	for i := range m.routes {
		m.routes[i].attr = to[m.routes[i].attr] - 1
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
		s.bestIsUnion = false
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
				rd.offer(st, m.speakers[from].exports, nil, false)
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
	m.compactSets()
}
