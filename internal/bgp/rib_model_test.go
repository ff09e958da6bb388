package bgp

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
)

// The oracle for the sorted-run RIB: the representation this package used
// before it — a map of per-prefix route lists for Adj-RIB-In, a map for
// Loc-RIB, routes offered one at a time — kept here as a reference model.
// The model shadows a real Mesh: configuration (layout, clusters, exports,
// filters, RT interest, session state, damping thresholds) is read from the
// mesh; everything a RIB holds or a RIB walk counts is the model's own.

type mapRIB struct {
	adj                  map[addr.VPNPrefix][]*VPNRoute
	loc                  map[addr.VPNPrefix]*VPNRoute
	stale                map[addr.VPNPrefix]map[topo.NodeID]bool
	damp                 map[addr.VPNPrefix]*dampState
	prevHad, flapPending map[addr.VPNPrefix]bool
	received, retained   int
}

func (s *mapRIB) receive(sp *Speaker, r *VPNRoute, bypass bool) {
	s.received++
	if !bypass && sp.Filter != nil && !sp.Filter(r) {
		return
	}
	s.retained++
	rs := s.adj[r.Prefix]
	for i, old := range rs {
		if old.OriginPE == r.OriginPE {
			rs[i] = r
			s.unmark(r.Prefix, r.OriginPE)
			return
		}
	}
	s.adj[r.Prefix] = append(rs, r)
}

func (s *mapRIB) selectBest(sp *Speaker) {
	s.loc = map[addr.VPNPrefix]*VPNRoute{}
	consider := func(r *VPNRoute) {
		if cur, ok := s.loc[r.Prefix]; !ok || betterRoute(r, cur) {
			s.loc[r.Prefix] = r
		}
	}
	for _, r := range sp.resolve(sp.exports) {
		consider(r)
	}
	for p, rs := range s.adj {
		if d, ok := s.damp[p]; ok && d.suppressed {
			continue
		}
		for _, r := range rs {
			consider(r)
		}
	}
}

// betterRoute is the decision process over whole routes.
func betterRoute(a, b *VPNRoute) bool {
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	if a.ASPathLen != b.ASPathLen {
		return a.ASPathLen < b.ASPathLen
	}
	return a.NextHop < b.NextHop
}

func byPrefix(a, b *VPNRoute) int { return addr.CompareVPNPrefix(a.Prefix, b.Prefix) }

func (s *mapRIB) unmark(p addr.VPNPrefix, o topo.NodeID) {
	if delete(s.stale[p], o); len(s.stale[p]) == 0 {
		delete(s.stale, p)
	}
}

func (s *mapRIB) mark(p addr.VPNPrefix, o topo.NodeID) {
	if s.stale[p] == nil {
		s.stale[p] = map[topo.NodeID]bool{}
	}
	s.stale[p][o] = true
}

// drop removes the routes gone selects and reports emptied prefixes the way
// SessionDown and SweepStale did: a prefix the last round held that fully
// left is a pending flap.
func (s *mapRIB) drop(gone func(*VPNRoute) bool) {
	for p, rs := range s.adj {
		kept := rs[:0:0]
		for _, r := range rs {
			if gone(r) {
				s.unmark(p, r.OriginPE)
			} else {
				kept = append(kept, r)
			}
		}
		if s.adj[p] = kept; len(kept) == 0 {
			delete(s.adj, p)
			if s.prevHad[p] {
				delete(s.prevHad, p)
				s.flapPending[p] = true
			}
		}
	}
}

func (s *mapRIB) sortedAdj(withStale bool) []*VPNRoute {
	var ps []addr.VPNPrefix
	for p := range s.adj {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
	var out []*VPNRoute
	for _, p := range ps {
		for _, r := range s.adj[p] {
			if withStale || !s.stale[p][r.OriginPE] {
				out = append(out, r)
			}
		}
	}
	return out
}

func (s *mapRIB) countStale(match func(topo.NodeID) bool) int {
	n := 0
	for _, r := range s.sortedAdj(true) {
		if s.stale[r.Prefix][r.OriginPE] && match(r.OriginPE) {
			n++
		}
	}
	return n
}

type mapMesh struct {
	m       *Mesh
	ribs    map[topo.NodeID]*mapRIB
	tracked bool // SetDamping has seeded the flap ledgers

	updates, loops, staleRetained, staleSwept, withdrawals, suppressions, reuses int
}

func newMapRIB() *mapRIB {
	return &mapRIB{adj: map[addr.VPNPrefix][]*VPNRoute{}, loc: map[addr.VPNPrefix]*VPNRoute{},
		stale: map[addr.VPNPrefix]map[topo.NodeID]bool{}, damp: map[addr.VPNPrefix]*dampState{},
		flapPending: map[addr.VPNPrefix]bool{}}
}

func newMapMesh(m *Mesh) *mapMesh {
	mm := &mapMesh{m: m, ribs: map[topo.NodeID]*mapRIB{}}
	for id := range m.speakers {
		mm.ribs[id] = newMapRIB()
	}
	return mm
}

func (mm *mapMesh) up(n topo.NodeID) bool { return mm.m.StateOf(n) == PeerUp }

// offer is the naive sender-side RT filter: interest order, then send
// order, untagged last, each route once.
func offer(routes []*VPNRoute, interest []addr.RouteTarget) []*VPNRoute {
	if interest == nil {
		return routes
	}
	var out []*VPNRoute
	for _, rt := range interest {
		for _, r := range routes {
			if r.HasRT(rt) && !slices.Contains(out, r) {
				out = append(out, r)
			}
		}
	}
	for _, r := range routes {
		if len(r.RTs) == 0 {
			out = append(out, r)
		}
	}
	return out
}

func (mm *mapMesh) converge(now sim.Time) {
	m := mm.m
	ids := m.sortedIDs()
	for _, id := range ids {
		s := mm.ribs[id]
		if mm.up(id) {
			// A round's own reset is no withdrawal (updateDamping diffs the
			// rounds), so this is not drop.
			fresh := map[addr.VPNPrefix][]*VPNRoute{}
			for _, r := range s.sortedAdj(true) {
				if s.stale[r.Prefix][r.OriginPE] {
					fresh[r.Prefix] = append(fresh[r.Prefix], r)
				}
			}
			s.adj = fresh
		} else {
			fresh := newMapRIB()
			fresh.damp, fresh.prevHad, fresh.flapPending = s.damp, s.prevHad, s.flapPending
			mm.ribs[id], s = fresh, fresh
		}
		s.received, s.retained = 0, 0
	}
	send := func(to topo.NodeID, r *VPNRoute, bypass bool) {
		mm.ribs[to].receive(m.speakers[to], r, bypass)
	}
	switch m.Layout {
	case FullMesh:
		for _, from := range ids {
			for _, to := range ids {
				if to == from || !mm.up(from) || !mm.up(to) {
					continue
				}
				for _, r := range m.speakers[from].resolve(m.speakers[from].exports) {
					send(to, r, false)
					mm.updates++
				}
			}
		}
	case Clustered:
		mm.convergeClustered()
	}
	for _, id := range ids {
		if mm.up(id) {
			mm.updateDamping(mm.ribs[id], now)
		}
		mm.ribs[id].selectBest(m.speakers[id])
	}
}

func (mm *mapMesh) convergeClustered() {
	m := mm.m
	for ci, c := range m.clusters {
		for _, cl := range c.Clients {
			for _, rrn := range c.RRs {
				if !mm.up(cl) || !mm.up(rrn) {
					continue
				}
				for _, r := range m.speakers[cl].resolve(m.speakers[cl].exports) {
					mm.ribs[rrn].receive(m.speakers[rrn], r, true)
					mm.updates++
				}
			}
		}
		for _, rrn := range c.RRs {
			for _, rs := range mm.ribs[rrn].adj {
				for i, r := range rs {
					if oc, isClient := m.clientClusterIdx[r.OriginPE]; mm.up(rrn) && isClient && oc == ci && r.Reflected == nil {
						cp := *r
						cp.Reflected = &Reflection{OriginatorID: r.OriginPE, ClusterList: []uint32{c.ID}}
						rs[i] = &cp
					}
				}
			}
		}
	}
	var rrs []topo.NodeID
	for _, c := range m.clusters {
		rrs = append(rrs, c.RRs...)
	}
	slices.Sort(rrs)
	for _, from := range rrs {
		if !mm.up(from) {
			continue
		}
		cid := m.clusters[m.rrClusterIdx[from]].ID
		sendable := m.speakers[from].resolve(m.speakers[from].exports)
		for _, r := range mm.ribs[from].sortedAdj(false) {
			if r.Reflected != nil && r.Reflected.ClusterList[0] == cid {
				sendable = append(sendable, r)
			}
		}
		for _, to := range rrs {
			if to == from || !mm.up(to) {
				continue
			}
			tc := m.clusters[m.rrClusterIdx[to]]
			for _, r := range offer(sendable, m.rrInterest(tc, to)) {
				mm.updates++
				if (r.Reflected != nil && (r.Reflected.OriginatorID == to || clusterListHas(r.Reflected.ClusterList, tc.ID))) || r.OriginPE == to {
					mm.loops++
					continue
				}
				mm.ribs[to].receive(m.speakers[to], r, true)
			}
		}
	}
	for _, c := range m.clusters {
		for _, rrn := range c.RRs {
			if !mm.up(rrn) {
				continue
			}
			reflect := append(m.speakers[rrn].resolve(m.speakers[rrn].exports), mm.ribs[rrn].sortedAdj(false)...)
			for _, cl := range c.Clients {
				if !mm.up(cl) {
					continue
				}
				for _, r := range offer(reflect, m.rtInterest[cl]) {
					mm.updates++
					if (r.Reflected != nil && r.Reflected.OriginatorID == cl) || r.OriginPE == cl {
						mm.loops++
						continue
					}
					mm.ribs[cl].receive(m.speakers[cl], r, false)
				}
			}
		}
	}
}

func (mm *mapMesh) updateDamping(s *mapRIB, now sim.Time) {
	cfg := mm.m.damping
	if !cfg.Enabled() {
		return
	}
	nowHas := map[addr.VPNPrefix]bool{}
	for p := range s.adj {
		nowHas[p] = true
	}
	for p := range s.prevHad {
		if !nowHas[p] {
			s.flapPending[p] = true
		}
	}
	for p := range nowHas {
		if !s.flapPending[p] {
			continue
		}
		delete(s.flapPending, p)
		d := s.damp[p]
		if d == nil {
			d = &dampState{}
			s.damp[p] = d
		}
		d.decayTo(now, cfg.HalfLife)
		d.penalty = min(d.penalty+cfg.Penalty, cfg.MaxPenalty)
		if !d.suppressed && d.penalty >= cfg.Suppress {
			d.suppressed = true
			mm.suppressions++
		}
	}
	s.prevHad = nowHas
}

func (mm *mapMesh) setDamping() {
	for _, s := range mm.ribs {
		if s.prevHad == nil {
			s.prevHad = map[addr.VPNPrefix]bool{}
			for p := range s.adj {
				s.prevHad[p] = true
			}
		}
	}
}

func (mm *mapMesh) decay(now sim.Time) {
	cfg := mm.m.damping
	if !cfg.Enabled() {
		return
	}
	for _, id := range mm.m.sortedIDs() {
		s, changed := mm.ribs[id], false
		for p, d := range s.damp {
			d.decayTo(now, cfg.HalfLife)
			if d.suppressed && d.penalty <= cfg.Reuse {
				d.suppressed, changed = false, true
				mm.reuses++
			}
			if !d.suppressed && d.penalty < 1 {
				delete(s.damp, p)
			}
		}
		if changed {
			s.selectBest(mm.m.speakers[id])
		}
	}
}

func (mm *mapMesh) sessionDown(n topo.NodeID, graceful bool) []PeerImpact {
	own := newMapRIB() // the downed box loses its RIB and ledgers, not its counters
	own.received, own.retained = mm.ribs[n].received, mm.ribs[n].retained
	mm.ribs[n] = own
	var out []PeerImpact
	for _, id := range mm.m.sortedIDs() {
		if id == n || !mm.up(id) {
			continue
		}
		s, match, im := mm.ribs[id], mm.m.lostOrigins(mm.m.speakers[id], n), PeerImpact{Peer: id}
		if graceful {
			for _, r := range s.sortedAdj(true) {
				if match(r.OriginPE) {
					if !s.stale[r.Prefix][r.OriginPE] {
						mm.staleRetained++
					}
					s.mark(r.Prefix, r.OriginPE)
					im.Stale++
				}
			}
		} else {
			s.drop(func(r *VPNRoute) bool {
				if match(r.OriginPE) {
					im.Withdrawn++
					mm.withdrawals++
				}
				return match(r.OriginPE)
			})
			if im.Withdrawn > 0 {
				s.selectBest(mm.m.speakers[id])
			}
		}
		if im.Stale > 0 || im.Withdrawn > 0 {
			out = append(out, im)
		}
	}
	return out
}

func (mm *mapMesh) sweep(n topo.NodeID) (int, []PeerImpact) {
	total := 0
	var out []PeerImpact
	for _, id := range mm.m.sortedIDs() {
		if id == n {
			continue
		}
		s, match, im := mm.ribs[id], mm.m.lostOrigins(mm.m.speakers[id], n), PeerImpact{Peer: id}
		s.drop(func(r *VPNRoute) bool {
			gone := s.stale[r.Prefix][r.OriginPE] && match(r.OriginPE)
			if gone {
				im.Withdrawn++
			}
			return gone
		})
		if im.Withdrawn > 0 {
			s.selectBest(mm.m.speakers[id])
			total += im.Withdrawn
			mm.staleSwept += im.Withdrawn
			mm.withdrawals += im.Withdrawn
			out = append(out, im)
		}
	}
	return total, out
}

func (mm *mapMesh) staleFrom(n topo.NodeID) []PeerImpact {
	var out []PeerImpact
	for _, id := range mm.m.sortedIDs() {
		if id == n {
			continue
		}
		if c := mm.ribs[id].countStale(mm.m.lostOrigins(mm.m.speakers[id], n)); c > 0 {
			out = append(out, PeerImpact{Peer: id, Stale: c})
		}
	}
	return out
}

// ---------------------------------------------------------------------------

// routeKey is everything about a route a RIB's user can observe.
func routeKey(r *VPNRoute) string {
	return fmt.Sprintf("%v nh=%v l=%d lp=%d as=%d o=%d refl=%v rt=%v",
		r.Prefix, r.NextHop, r.Label, r.LocalPref, r.ASPathLen, r.OriginPE, r.Reflected, r.RTs)
}

// resolve returns views of the routes a run of s's handles stands for.
func (s *Speaker) resolve(run []uint32) []*VPNRoute {
	out := make([]*VPNRoute, len(run))
	for i, h := range run {
		out[i] = new(VPNRoute)
		s.mesh.view(h, out[i])
	}
	return out
}

type modelRig struct {
	t        *testing.T
	m        *Mesh
	mm       *mapMesh
	rng      *rand.Rand
	ids      []topo.NodeID
	prefixes []addr.VPNPrefix
	now      sim.Time
	step     int
	what     string
	// inserted marks the speakers that have originated a route out of
	// prefix order, which Originate inserts inside the exports.
	inserted map[topo.NodeID]bool
}

// newModelRig builds nine speakers, fully meshed when clusters is nil and
// reflected through them otherwise. Clients import by route target; two of
// them declare a two-target interest, one declares none, so the constrained
// and the flooded paths both run.
func newModelRig(t *testing.T, clusters []Cluster, seed int64) *modelRig {
	rig := &modelRig{t: t, m: NewMesh(), rng: rand.New(rand.NewSource(seed)), inserted: map[topo.NodeID]bool{}}
	for n := topo.NodeID(0); n < 9; n++ {
		rig.ids = append(rig.ids, n)
		rig.m.AddSpeaker(n, addr.IPv4(0x0aff0000+uint32(n)))
	}
	if clusters != nil {
		rig.m.UseClusters(clusters)
	}
	for n := topo.NodeID(4); n < 9; n++ {
		want := []addr.RouteTarget{vpnRT(int(n) % 3)}
		if n%2 == 0 {
			want = append(want, vpnRT(int(n+1)%3))
		}
		s, _ := rig.m.Speaker(n)
		s.Filter = func(r *VPNRoute) bool {
			return len(r.RTs) == 0 || slices.ContainsFunc(want, r.HasRT)
		}
		if n != 8 {
			rig.m.SetRTInterest(n, want)
		}
	}
	for rd := 1; rd <= 2; rd++ {
		for i := 0; i < 5; i++ {
			rig.prefixes = append(rig.prefixes, addr.VPNPrefix{RD: vpnRD(rd), Prefix: addr.NewPrefix(addr.IPv4(0x0a000000+uint32(i)<<8), 24)})
		}
	}
	rig.m.SetClock(func() sim.Time { return rig.now })
	rig.mm = newMapMesh(rig.m)
	return rig
}

func (rig *modelRig) pick() topo.NodeID { return rig.ids[rig.rng.Intn(len(rig.ids))] }

// stepOnce applies one random operation to the mesh and to the model.
func (rig *modelRig) stepOnce() {
	m, mm, rng := rig.m, rig.mm, rig.rng
	n := rig.pick()
	s := m.speakers[n]
	switch op := rng.Intn(16); {
	case op < 5:
		// Few next hops and preferences over few prefixes: same-prefix routes
		// from several origins, many of them full ties.
		r := &VPNRoute{
			Prefix:    rig.prefixes[rng.Intn(len(rig.prefixes))],
			NextHop:   addr.IPv4(1 + rng.Intn(2)),
			Label:     packet.Label(16 + rng.Intn(1000)),
			LocalPref: 100 * (1 + rng.Intn(2)),
			OriginPE:  n,
		}
		for rt := 0; rt < 3; rt++ {
			if rng.Intn(2) == 0 {
				r.RTs = append(r.RTs, vpnRT(rt))
			}
		}
		rig.what = fmt.Sprintf("originate %s at %d", routeKey(r), n)
		if i, found := s.search(s.exports, r.Prefix); !found && i < len(s.exports) {
			rig.inserted[n] = true
		}
		s.Originate(r)
	case op == 5 && len(s.exports) > 0:
		p := m.routes[s.exports[rng.Intn(len(s.exports))]].Prefix
		rig.what = fmt.Sprintf("withdraw %v at %d", p, n)
		s.WithdrawLocal(p)
	case op < 10:
		rig.what = "converge"
		m.Converge()
		mm.converge(rig.now)
	case op < 12 && m.StateOf(n) == PeerUp:
		graceful := rng.Intn(3) > 0
		rig.what = fmt.Sprintf("session down %d graceful=%v", n, graceful)
		rig.equal(m.SessionDown(n, graceful), mm.sessionDown(n, graceful), "SessionDown impacts")
	case op < 12:
		rig.what = fmt.Sprintf("session up %d", n)
		m.SessionUp(n)
	case op == 12:
		rig.what = fmt.Sprintf("sweep %d", n)
		total, impacts := m.SweepStale(n)
		wantTotal, wantImpacts := mm.sweep(n)
		rig.equal(total, wantTotal, "SweepStale total")
		rig.equal(impacts, wantImpacts, "SweepStale impacts")
	case op == 13 && !mm.tracked:
		rig.what = "set damping"
		m.SetDamping(DampingConfig{Penalty: 1000, Suppress: 1500, Reuse: 700, HalfLife: 10 * sim.Second})
		mm.setDamping()
		mm.tracked = true
	default:
		rig.now += sim.Time(rng.Intn(8)) * sim.Second
		rig.what = fmt.Sprintf("decay at %v", rig.now)
		m.DecayDamping(rig.now)
		mm.decay(rig.now)
	}
}

// equal requires two values of one type to be deeply equal. The name is
// built only on failure: this runs a few hundred thousand times.
func (rig *modelRig) equal(got, want any, what ...any) {
	rig.t.Helper()
	if !reflect.DeepEqual(got, want) {
		rig.t.Fatalf("step %d (%s): %s = %v, map model says %v", rig.step, rig.what, fmt.Sprint(what...), got, want)
	}
}

// sameRoutes requires two route lists to hold equal routes in equal order.
func (rig *modelRig) sameRoutes(got, want []*VPNRoute, what ...any) {
	rig.t.Helper()
	same := func(a, b *VPNRoute) bool {
		return a.Prefix == b.Prefix && a.NextHop == b.NextHop && a.Label == b.Label && a.LocalPref == b.LocalPref &&
			a.ASPathLen == b.ASPathLen && a.OriginPE == b.OriginPE && slices.Equal(a.RTs, b.RTs) &&
			(a.Reflected == nil) == (b.Reflected == nil) && (a.Reflected == nil || a.Reflected.OriginatorID == b.Reflected.OriginatorID &&
			slices.Equal(a.Reflected.ClusterList, b.Reflected.ClusterList))
	}
	if !slices.EqualFunc(got, want, same) {
		keys := func(rs []*VPNRoute) (out []string) {
			for _, r := range rs {
				out = append(out, routeKey(r))
			}
			return out
		}
		rig.t.Fatalf("step %d (%s): %s =\n  %q, map model says\n  %q", rig.step, rig.what, fmt.Sprint(what...), keys(got), keys(want))
	}
}

// compare checks every observable of the mesh against the model.
func (rig *modelRig) compare() {
	rig.t.Helper()
	m, mm := rig.m, rig.mm
	staleCount := 0
	for _, id := range rig.ids {
		s, ms := m.speakers[id], mm.ribs[id]
		var best []*VPNRoute
		for _, p := range rig.prefixes {
			var got, want []*VPNRoute
			if r, ok := s.Best(p); ok {
				got = append(got, r)
			}
			if r, ok := ms.loc[p]; ok {
				want = append(want, r)
			}
			rig.sameRoutes(got, want, "speaker ", id, " Best ", p)
			best = append(best, want...)
			rig.equal(m.Suppressed(id, p), ms.damp[p] != nil && ms.damp[p].suppressed, "speaker ", id, " Suppressed ", p)
		}
		rig.sameRoutes(s.BestRoutes(), best, "speaker ", id, " BestRoutes") // rig.prefixes ascends, as BestRoutes must
		held := ms.sortedAdj(true)
		rig.sameRoutes(s.resolve(s.rib.paths), held, "speaker ", id, " adj-RIB-in")
		rig.equal(s.RIBSize(), len(held), "speaker ", id, " RIBSize")
		rig.equal([2]int{s.Received, s.Retained}, [2]int{ms.received, ms.retained}, "speaker ", id, " Received/Retained")
		stale := ms.countStale(func(topo.NodeID) bool { return true })
		rig.equal(s.StaleRoutes(), stale, "speaker ", id, " StaleRoutes")
		staleCount += stale
		rig.equal(m.StaleFrom(id), mm.staleFrom(id), "StaleFrom ", id)
	}
	rig.equal(m.StaleCount(), staleCount, "StaleCount")
	rig.equal(
		[]int{m.UpdatesSent, m.LoopPrevented, m.StaleRetained, m.StaleSwept, m.WithdrawalsSent, m.RouteSuppressions, m.RouteReuses},
		[]int{mm.updates, mm.loops, mm.staleRetained, mm.staleSwept, mm.withdrawals, mm.suppressions, mm.reuses},
		"mesh counters")
}

// selectionCases tallies, over the Converges of a run, the speakers whose
// Loc-RIB selection met each case a ranked selection must get right.
type selectionCases struct {
	// suppressed: a damping-suppressed prefix held by one received route
	// and no export, which a prefix held by one route must not select.
	suppressed int
	// stale: graceful-restart stale routes kept across the round.
	stale int
	// disordered: a speaker that has originated a route out of prefix
	// order.
	disordered int
	// shared: a prefix held by routes of several origins, or by an export
	// and a received route, which only the decision process can settle.
	shared int
}

// checkRanked requires every speaker's Loc-RIB, as the Converge just run
// selected it by prefix rank, to equal what selecting by prefix over the
// same runs gives, and tallies the cases the selection met.
func (rig *modelRig) checkRanked(seen *selectionCases) {
	rig.t.Helper()
	for _, id := range rig.ids {
		s := rig.m.speakers[id]
		ranked, union := s.rib.best, s.bestIsUnion
		s.selectBest(nil)
		if !slices.Equal(ranked, s.rib.best) || union != s.bestIsUnion {
			rig.t.Fatalf("step %d (%s): speaker %d selected %v (union %v) by prefix rank and %v (union %v) by prefix",
				rig.step, rig.what, id, s.resolve(ranked), union, s.resolve(s.rib.best), s.bestIsUnion)
		}
		exported := func(p addr.VPNPrefix) bool {
			return slices.ContainsFunc(s.exports, func(h uint32) bool { return rig.m.routes[h].Prefix == p })
		}
		for p, d := range s.damp {
			if d.suppressed && len(s.forPrefix(p)) == 1 && !exported(p) {
				seen.suppressed++
				break
			}
		}
		if s.StaleRoutes() > 0 {
			seen.stale++
		}
		if rig.inserted[id] {
			seen.disordered++
		}
		for i := 0; i < len(s.rib.paths); {
			j := s.span(s.rib.paths, i)
			if j-i > 1 || exported(rig.m.routes[s.rib.paths[i]].Prefix) {
				seen.shared++
				break
			}
			i = j
		}
	}
}

// suppressOne turns damping on and flaps one untagged route of speaker 4, a
// client in every clustered layout, through five rounds: every speaker that
// hears it then holds the route and nothing else for its prefix, and has
// suppressed the prefix. The mesh and the model take the same steps, and
// every round is checked as stepOnce's are.
func (rig *modelRig) suppressOne(seen *selectionCases) {
	m, mm := rig.m, rig.mm
	rig.what = "set damping"
	m.SetDamping(DampingConfig{Penalty: 1000, Suppress: 1500, Reuse: 700, HalfLife: 10 * sim.Second})
	mm.setDamping()
	mm.tracked = true
	s := m.speakers[4]
	r := &VPNRoute{Prefix: rig.prefixes[0], NextHop: 1, Label: 16, LocalPref: 100, OriginPE: 4}
	for round := 0; round < 5; round++ {
		if round%2 == 0 {
			rig.what = "originate the flapping route"
			s.Originate(r)
		} else {
			rig.what = "withdraw the flapping route"
			s.WithdrawLocal(r.Prefix)
		}
		rig.what += ", converge"
		m.Converge()
		mm.converge(rig.now)
		rig.checkRanked(seen)
		rig.compare()
	}
}

// TestRIBMatchesMapModel drives the mesh and the map model with the same
// seeded random operations over every layout — the full mesh, a single
// reflector (one cluster, every other speaker its client), two clusters of
// redundant reflectors, and an uneven one: three reflectors in one cluster,
// a cluster with no clients and a speaker in no cluster — and requires every
// observable to agree after every step. Sessions go down and restart at
// random, so every phase meets reflectors that are Down or Restarting.
//
// After every Converge it also requires the Loc-RIBs the round selected by
// prefix rank to be what selecting by prefix gives (checkRanked), and the
// full mesh and the clustered layouts must each meet every case of
// selectionCases. Odd seeds begin with suppressOne, so that a suppressed
// prefix held by one route is met on every layout; even seeds begin with
// damping off.
func TestRIBMatchesMapModel(t *testing.T) {
	seeds, steps := 10, 200
	if testing.Short() {
		seeds = 2
	}
	layouts := [][]Cluster{
		nil,
		{{ID: 1, RRs: []topo.NodeID{0}, Clients: []topo.NodeID{1, 2, 3, 4, 5, 6, 7, 8}}},
		{
			{ID: 10, RRs: []topo.NodeID{0, 1}, Clients: []topo.NodeID{4, 5, 6}},
			{ID: 20, RRs: []topo.NodeID{2, 3}, Clients: []topo.NodeID{7, 8}},
		},
		{
			{ID: 10, RRs: []topo.NodeID{0, 1, 2}, Clients: []topo.NodeID{4, 5, 6, 7}},
			{ID: 20, RRs: []topo.NodeID{3}},
		},
	}
	var seen [2]selectionCases // full mesh, clustered
	for i, clusters := range layouts {
		for seed := 0; seed < seeds; seed++ {
			rig := newModelRig(t, clusters, int64(1000*i+seed))
			if seed%2 == 1 {
				rig.suppressOne(&seen[min(i, 1)])
			}
			for rig.step = 0; rig.step < steps; rig.step++ {
				rig.stepOnce()
				if rig.what == "converge" {
					rig.checkRanked(&seen[min(i, 1)])
				}
				rig.compare()
			}
		}
	}
	for i, layout := range []string{"full mesh", "clustered"} {
		t.Logf("%s: speakers selecting %+v", layout, seen[i])
		if c := seen[i]; c.suppressed == 0 || c.stale == 0 || c.disordered == 0 || c.shared == 0 {
			t.Errorf("%s: a Converge's selection never met one of its cases: %+v", layout, c)
		}
	}
}

// TestSealKeepsArrivalOrderWhateverTheRuns pins seal's sort to the stable
// sort it replaced. A tail is usually one ascending run per sending peer;
// one that arrives descending has no run longer than a prefix group, and
// inside each prefix the routes must still come out in arrival order,
// which is what place then refreshes or appends in. Random run shapes
// cover the merge's odd run out and its ties. Every case goes through one
// round, as a Converge's speakers do, longest tails first: an entry a seal
// left in the round's buffers would surface in a later, shorter case.
func TestSealKeepsArrivalOrderWhateverTheRuns(t *testing.T) {
	route := func(third, origin int) *VPNRoute {
		return &VPNRoute{
			Prefix:   addr.VPNPrefix{Prefix: addr.NewPrefix(addr.IPv4(0x0a000000+third<<8), 24)},
			OriginPE: topo.NodeID(origin),
		}
	}
	type tailCase struct {
		what string
		tail []*VPNRoute
	}
	cases := []tailCase{{what: "empty"}}
	var descending []*VPNRoute
	for third := 40; third > 0; third-- {
		for origin := 3; origin > 0; origin-- {
			descending = append(descending, route(third/2, origin)) // two thirds share a prefix
		}
	}
	cases = append(cases, tailCase{"descending", descending})
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		var tail []*VPNRoute
		for run := rng.Intn(6); run >= 0; run-- {
			for third := rng.Intn(4); third < 30; third += 1 + rng.Intn(5) {
				tail = append(tail, route(third, rng.Intn(4)))
			}
		}
		cases = append(cases, tailCase{fmt.Sprint("random runs ", i), tail})
	}
	slices.SortStableFunc(cases, func(a, b tailCase) int { return len(b.tail) - len(a.tail) })

	// Every route enters one mesh's table, which the round then ranks.
	m, handle := NewMesh(), map[*VPNRoute]uint32{}
	for _, c := range cases {
		for _, r := range c.tail {
			handle[r] = m.add(r)
		}
	}
	handles := func(rs []*VPNRoute) []uint32 {
		out := make([]uint32, len(rs))
		for i, r := range rs {
			out[i] = handle[r]
		}
		return out
	}
	rd := m.newRound(make([]uint32, len(m.routes)), 0)
	for k, c := range cases {
		want := slices.Clone(c.tail)
		slices.SortStableFunc(want, byPrefix)
		got := handles(c.tail)
		rd.sortRuns(got)
		if !slices.Equal(got, handles(want)) { // handles: the very routes, in the very order
			t.Fatalf("%s: sortRuns and the stable sort disagree over %d routes", c.what, len(c.tail))
		}
		// In two seals, so the second merges into a run and refreshes in it.
		s, ref := m.AddSpeaker(topo.NodeID(k), 0), &mapRIB{adj: map[addr.VPNPrefix][]*VPNRoute{}}
		for i, r := range c.tail {
			rd.receive(s, []uint32{handle[r]}, true)
			ref.receive(s, r, true)
			if i == len(c.tail)/2 {
				rd.seal(s)
			}
		}
		rd.seal(s)
		if held := ref.sortedAdj(true); !slices.Equal(s.rib.paths, handles(held)) || len(rd.tail) > 0 {
			t.Fatalf("%s: sealed adj-RIB-in differs from the map model's, or the tail kept %d routes", c.what, len(rd.tail))
		}
	}
}
