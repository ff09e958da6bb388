// BGP session lifecycle and robustness: peer state (Up/Down/Restarting),
// RFC 4724-style graceful restart with stale-route retention and
// mark-and-sweep refresh, and RFC 2439-style route-flap damping with a
// per-prefix penalty, exponential half-life decay, and suppress/reuse
// thresholds.
//
// The mesh stays a full-recompute model: Converge() redistributes exports
// between speakers whose sessions are Up. A Down or Restarting speaker
// neither sends nor receives; its peers either withdraw its routes
// (session loss without graceful restart) or keep them marked stale and
// continue forwarding on them until the restart timer or a refresh settles
// their fate (graceful restart). Every mutation here is deterministic:
// iteration over speakers is sorted, and per-prefix bookkeeping is order
// independent, so the serial-vs-parallel equivalence harness stays
// byte-identical.
package bgp

import (
	"math"
	"sort"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
)

// PeerState is one speaker's session state as seen by the mesh.
type PeerState int

// Session states.
const (
	PeerUp PeerState = iota
	PeerDown
	PeerRestarting // down, but peers preserve its routes as stale (RFC 4724)
)

func (s PeerState) String() string {
	switch s {
	case PeerDown:
		return "down"
	case PeerRestarting:
		return "restarting"
	}
	return "up"
}

// DampingConfig tunes route-flap damping. The zero value disables it.
type DampingConfig struct {
	// Penalty is added to a prefix's figure of merit on each flap
	// (withdrawal followed by re-announcement).
	Penalty float64
	// Suppress: received paths for a prefix are excluded from best-path
	// selection once its penalty reaches this threshold.
	Suppress float64
	// Reuse: a suppressed prefix is reinstated once decay brings its
	// penalty at or below this threshold.
	Reuse float64
	// HalfLife of the exponential penalty decay.
	HalfLife sim.Time
	// MaxPenalty caps accumulation (0 = 4x Suppress).
	MaxPenalty float64
}

// Enabled reports whether the configuration describes active damping.
func (c DampingConfig) Enabled() bool {
	return c.Penalty > 0 && c.Suppress > 0 && c.HalfLife > 0
}

// dampState is one prefix's flap history at one speaker.
type dampState struct {
	penalty    float64
	last       sim.Time // when penalty was last updated
	suppressed bool
}

// decayTo applies the exponential half-life decay up to now.
func (d *dampState) decayTo(now sim.Time, halfLife sim.Time) {
	if halfLife <= 0 || now <= d.last {
		d.last = now
		return
	}
	dt := float64(now-d.last) / float64(halfLife)
	d.penalty *= math.Exp2(-dt)
	d.last = now
}

// PeerImpact reports, for one surviving peer, how a session event touched
// its RIB: routes retained stale (graceful restart) or withdrawn.
type PeerImpact struct {
	Peer      topo.NodeID
	Stale     int
	Withdrawn int
}

// SetClock gives the mesh a virtual-time source for damping decay. Without
// one, penalties never decay (time stands still at zero).
func (m *Mesh) SetClock(now func() sim.Time) { m.clock = now }

// SetDamping enables route-flap damping with the given thresholds.
func (m *Mesh) SetDamping(cfg DampingConfig) {
	if cfg.MaxPenalty == 0 {
		cfg.MaxPenalty = 4 * cfg.Suppress
	}
	m.damping = cfg
	// Seed the flap ledger from the current adj-RIB-in so that enabling
	// damping on an already-converged mesh charges the very first flap.
	for _, s := range m.speakers {
		if s.prevHad != nil {
			continue
		}
		s.prevHad = make(map[addr.VPNPrefix]bool)
		s.eachPrefix(func(p addr.VPNPrefix) { s.prevHad[p] = true })
	}
}

// Damping returns the active damping configuration.
func (m *Mesh) Damping() DampingConfig { return m.damping }

func (m *Mesh) now() sim.Time {
	if m.clock == nil {
		return 0
	}
	return m.clock()
}

// StateOf returns the session state of node n (Up when never touched).
func (m *Mesh) StateOf(n topo.NodeID) PeerState {
	if m.peerState == nil {
		return PeerUp
	}
	return m.peerState[n]
}

func (m *Mesh) setState(n topo.NodeID, st PeerState) {
	if m.peerState == nil {
		m.peerState = make(map[topo.NodeID]PeerState)
	}
	if st == PeerUp {
		delete(m.peerState, n)
		return
	}
	m.peerState[n] = st
}

// lostOrigins returns the predicate selecting the routes speaker s loses
// when its session toward n dies. Losing a cluster's last reflector severs
// its clients from everything they did not originate; otherwise only routes
// originated by n are affected (in the full mesh they arrived on the
// direct session; through a reflector it withdraws them on the origin's
// behalf).
func (m *Mesh) lostOrigins(s *Speaker, n topo.NodeID) func(*VPNRoute) bool {
	if m.Layout == Clustered {
		if ci, isRR := m.rrClusterIdx[n]; isRR {
			// Redundancy first: with another Up reflector in n's cluster,
			// every distribution path survives and only n's own exports die.
			lastUp := true
			for _, rrn := range m.clusters[ci].RRs {
				if rrn != n && m.StateOf(rrn) == PeerUp {
					lastUp = false
					break
				}
			}
			if !lastUp {
				return func(r *VPNRoute) bool { return r.OriginPE == n }
			}
			if sci, isClient := m.clientClusterIdx[s.Node]; isClient && sci == ci {
				// The cluster's last reflector died under its client:
				// severed from the whole mesh except its own routes.
				self := s.Node
				return func(r *VPNRoute) bool { return r.OriginPE != self }
			}
			// Everyone else loses the unreachable cluster: n's exports and
			// every route originated by n's clients.
			return func(r *VPNRoute) bool {
				if r.OriginPE == n {
					return true
				}
				oc, isClient := m.clientClusterIdx[r.OriginPE]
				return isClient && oc == ci
			}
		}
	}
	return func(r *VPNRoute) bool { return r.OriginPE == n }
}

// SessionDown flaps node n's sessions. With graceful restart, every
// surviving peer keeps n's routes marked stale — best paths, VRF imports,
// and the label plane keep working on them — awaiting refresh or sweep.
// Without it, peers withdraw the routes immediately. The downed box itself
// loses its RIB either way (its control plane is gone); its exports
// survive, modelling configuration that returns with the process.
// The per-peer impact is returned sorted by peer for deterministic
// journaling.
func (m *Mesh) SessionDown(n topo.NodeID, graceful bool) []PeerImpact {
	st := PeerDown
	if graceful {
		st = PeerRestarting
	}
	m.setState(n, st)
	m.SessionFlaps++
	if own, ok := m.speakers[n]; ok {
		own.rib = rib{}
		own.stale = nil
		own.damp = nil
		own.prevHad = nil
		own.flapPending = nil
	}
	var out []PeerImpact
	for _, id := range m.sortedIDs() {
		if id == n || m.StateOf(id) != PeerUp {
			continue
		}
		s := m.speakers[id]
		match := m.lostOrigins(s, n)
		im := PeerImpact{Peer: id}
		if graceful {
			for _, h := range s.rib.paths {
				r := m.routes[h]
				if !match(r) {
					continue
				}
				if !s.isStale(r.Prefix, r.OriginPE) {
					m.StaleRetained++
				}
				s.markStale(r.Prefix, r.OriginPE)
				im.Stale++
			}
		} else {
			s.retain(func(r *VPNRoute) bool {
				if !match(r) {
					return true
				}
				s.clearStale(r.Prefix, r.OriginPE)
				im.Withdrawn++
				m.WithdrawalsSent++
				return false
			}, s.noteWithdrawn)
		}
		if im.Withdrawn > 0 {
			s.selectBest(nil)
		}
		if im.Stale > 0 || im.Withdrawn > 0 {
			out = append(out, im)
		}
	}
	return out
}

// SessionUp re-establishes node n's sessions. The caller runs Converge to
// redistribute (refreshing stale routes in place) and then SweepStale to
// drop what the restarted box no longer announces.
func (m *Mesh) SessionUp(n topo.NodeID) {
	m.setState(n, PeerUp)
}

// StaleFrom counts, per surviving peer, the routes currently marked stale
// that n's session loss caused (sorted by peer).
func (m *Mesh) StaleFrom(n topo.NodeID) []PeerImpact {
	var out []PeerImpact
	for _, id := range m.sortedIDs() {
		if id == n {
			continue
		}
		s := m.speakers[id]
		if count := s.countStale(m.lostOrigins(s, n)); count > 0 {
			out = append(out, PeerImpact{Peer: id, Stale: count})
		}
	}
	return out
}

// StaleCount returns the total number of stale-retained routes.
func (m *Mesh) StaleCount() int {
	n := 0
	for _, s := range m.speakers {
		n += s.StaleRoutes()
	}
	return n
}

// SweepStale removes every still-stale route that n's session loss caused:
// the mark-and-sweep end of graceful restart (re-establishment refreshed
// the survivors; what remains was not re-announced) and the hard fallback
// when the restart timer expires. Withdrawals count per peer; the result
// is sorted by peer.
func (m *Mesh) SweepStale(n topo.NodeID) (int, []PeerImpact) {
	total := 0
	var out []PeerImpact
	for _, id := range m.sortedIDs() {
		if id == n {
			continue
		}
		s := m.speakers[id]
		match := m.lostOrigins(s, n)
		im := PeerImpact{Peer: id}
		if len(s.stale) > 0 {
			s.retain(func(r *VPNRoute) bool {
				if !s.isStale(r.Prefix, r.OriginPE) || !match(r) {
					return true
				}
				s.clearStale(r.Prefix, r.OriginPE)
				im.Withdrawn++
				return false
			}, s.noteWithdrawn)
		}
		if im.Withdrawn > 0 {
			s.selectBest(nil)
			total += im.Withdrawn
			m.StaleSwept += im.Withdrawn
			m.WithdrawalsSent += im.Withdrawn
			out = append(out, im)
		}
	}
	return total, out
}

// stale bookkeeping on the speaker: (prefix, origin) pairs retained under
// graceful restart.

func (s *Speaker) markStale(p addr.VPNPrefix, origin topo.NodeID) {
	if s.stale == nil {
		s.stale = make(map[addr.VPNPrefix]map[topo.NodeID]bool)
	}
	origins := s.stale[p]
	if origins == nil {
		origins = make(map[topo.NodeID]bool)
		s.stale[p] = origins
	}
	origins[origin] = true
}

func (s *Speaker) isStale(p addr.VPNPrefix, origin topo.NodeID) bool {
	return s.stale[p][origin]
}

func (s *Speaker) clearStale(p addr.VPNPrefix, origin topo.NodeID) {
	origins, ok := s.stale[p]
	if !ok {
		return
	}
	delete(origins, origin)
	if len(origins) == 0 {
		delete(s.stale, p)
	}
}

// StaleRoutes returns the number of stale-retained routes at this speaker.
func (s *Speaker) StaleRoutes() int {
	return s.countStale(func(*VPNRoute) bool { return true })
}

// countStale counts the stale-retained routes that match selects.
func (s *Speaker) countStale(match func(*VPNRoute) bool) int {
	n := 0
	for p, origins := range s.stale {
		for _, h := range s.forPrefix(p) {
			if r := s.mesh.routes[h]; origins[r.OriginPE] && match(r) {
				n++
			}
		}
	}
	return n
}

// clearAdjRIBKeepStale resets adj-RIB-in for a fresh redistribution round
// while preserving stale-retained routes, which refresh in place when the
// restarted origin re-announces them.
func (s *Speaker) clearAdjRIBKeepStale() {
	if len(s.stale) == 0 {
		s.rib.paths = nil
		return
	}
	s.retain(func(r *VPNRoute) bool { return s.isStale(r.Prefix, r.OriginPE) }, nil)
}

// damping: the receiver-side flap ledger. A flap is a prefix that left
// adj-RIB-in and came back; graceful-restart refreshes never register as
// flaps because the stale route is replaced in place, not withdrawn.

// noteWithdrawn records that prefix p fully left this speaker's adj-RIB-in
// outside a Converge round; if it returns at the next round, that is a flap.
func (s *Speaker) noteWithdrawn(p addr.VPNPrefix) {
	if !s.prevHad[p] {
		return
	}
	delete(s.prevHad, p)
	if s.flapPending == nil {
		s.flapPending = make(map[addr.VPNPrefix]bool)
	}
	s.flapPending[p] = true
}

func (s *Speaker) dampFor(p addr.VPNPrefix) *dampState {
	if s.damp == nil {
		s.damp = make(map[addr.VPNPrefix]*dampState)
	}
	d, ok := s.damp[p]
	if !ok {
		d = &dampState{}
		s.damp[p] = d
	}
	return d
}

// updateDamping is the Converge epilogue: diff the received-prefix set
// against the previous round, charge the penalty for every
// withdrawn-and-re-announced prefix, and cross the suppress threshold
// where earned. Runs only for Up speakers.
func (s *Speaker) updateDamping(m *Mesh, now sim.Time) {
	if !m.damping.Enabled() {
		return
	}
	nowHas := make(map[addr.VPNPrefix]bool, len(s.prevHad))
	s.eachPrefix(func(p addr.VPNPrefix) { nowHas[p] = true })
	for p := range s.prevHad {
		if !nowHas[p] {
			if s.flapPending == nil {
				s.flapPending = make(map[addr.VPNPrefix]bool)
			}
			s.flapPending[p] = true
		}
	}
	for p := range nowHas {
		if !s.flapPending[p] {
			continue
		}
		delete(s.flapPending, p)
		d := s.dampFor(p)
		d.decayTo(now, m.damping.HalfLife)
		d.penalty += m.damping.Penalty
		if d.penalty > m.damping.MaxPenalty {
			d.penalty = m.damping.MaxPenalty
		}
		if !d.suppressed && d.penalty >= m.damping.Suppress {
			d.suppressed = true
			m.RouteSuppressions++
			m.newlySuppressed = append(m.newlySuppressed, p)
		}
	}
	s.prevHad = nowHas
}

// DecayDamping ages every penalty to now and reinstates prefixes whose
// penalty fell to the reuse threshold. The reinstated prefixes are
// returned sorted and deduplicated for journaling.
func (m *Mesh) DecayDamping(now sim.Time) []addr.VPNPrefix {
	if !m.damping.Enabled() {
		return nil
	}
	reused := make(map[addr.VPNPrefix]bool)
	for _, id := range m.sortedIDs() {
		s := m.speakers[id]
		changed := false
		for p, d := range s.damp {
			d.decayTo(now, m.damping.HalfLife)
			if d.suppressed && d.penalty <= m.damping.Reuse {
				d.suppressed = false
				m.RouteReuses++
				reused[p] = true
				changed = true
			}
			if !d.suppressed && d.penalty < 1 {
				delete(s.damp, p)
			}
		}
		if changed {
			s.selectBest(nil)
		}
	}
	if len(reused) == 0 {
		return nil
	}
	out := make([]addr.VPNPrefix, 0, len(reused))
	for p := range reused {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// TakeSuppressed drains the prefixes suppressed since the last call,
// sorted and deduplicated for journaling.
func (m *Mesh) TakeSuppressed() []addr.VPNPrefix {
	if len(m.newlySuppressed) == 0 {
		return nil
	}
	seen := make(map[addr.VPNPrefix]bool, len(m.newlySuppressed))
	out := m.newlySuppressed[:0]
	for _, p := range m.newlySuppressed {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	m.newlySuppressed = nil
	return out
}

// Suppressed reports whether received paths for p are damped at speaker n.
func (m *Mesh) Suppressed(n topo.NodeID, p addr.VPNPrefix) bool {
	s, ok := m.speakers[n]
	if !ok {
		return false
	}
	d, ok := s.damp[p]
	return ok && d.suppressed
}
