package bgp

import (
	"fmt"
	"sort"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

func saveRoute(w *snapshot.Writer, r *VPNRoute) {
	addr.SaveVPNPrefix(w, r.Prefix)
	w.U64(uint64(r.NextHop))
	w.U64(uint64(r.Label))
	w.U64(uint64(len(r.RTs)))
	for _, rt := range r.RTs {
		addr.SaveRT(w, rt)
	}
	w.I64(int64(r.LocalPref))
	w.I64(int64(r.ASPathLen))
	w.I64(int64(r.OriginPE))
	w.I64(int64(r.OriginatorID))
	w.U64(uint64(len(r.ClusterList)))
	for _, c := range r.ClusterList {
		w.U64(uint64(c))
	}
}

func loadRoute(r *snapshot.Reader) *VPNRoute {
	v := &VPNRoute{
		Prefix:  addr.LoadVPNPrefix(r),
		NextHop: addr.IPv4(uint32(r.U64())),
		Label:   packet.Label(r.U64()),
	}
	n := r.Count(4)
	for i := 0; i < n; i++ {
		v.RTs = append(v.RTs, addr.LoadRT(r))
	}
	v.LocalPref = int(r.I64())
	v.ASPathLen = int(r.I64())
	v.OriginPE = topo.NodeID(r.I64())
	v.OriginatorID = topo.NodeID(r.I64())
	nc := r.Count(1) // a cluster ID is a varint: one byte at least
	for i := 0; i < nc; i++ {
		v.ClusterList = append(v.ClusterList, uint32(r.U64()))
	}
	return v
}

func sortedVPNPrefixes[V any](m map[addr.VPNPrefix]V) []addr.VPNPrefix {
	out := make([]addr.VPNPrefix, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// saveState serializes one speaker: exports and adj-RIB-in by value (slice
// order preserved — the decision process keeps the first route on full
// ties, so order is semantics), graceful-restart stale marks, and the
// damping ledger. loc-RIB is recomputed at load.
func (s *Speaker) saveState(w *snapshot.Writer) {
	w.I64(int64(s.Received))
	w.I64(int64(s.Retained))
	w.U64(uint64(len(s.exports)))
	for _, r := range s.exports {
		saveRoute(w, r)
	}
	prefixes := sortedVPNPrefixes(s.adjRIBIn)
	w.U64(uint64(len(prefixes)))
	for _, p := range prefixes {
		rs := s.adjRIBIn[p]
		addr.SaveVPNPrefix(w, p)
		w.U64(uint64(len(rs)))
		for _, r := range rs {
			saveRoute(w, r)
		}
	}
	stale := sortedVPNPrefixes(s.stale)
	w.U64(uint64(len(stale)))
	for _, p := range stale {
		addr.SaveVPNPrefix(w, p)
		origins := make([]topo.NodeID, 0, len(s.stale[p]))
		for o := range s.stale[p] {
			origins = append(origins, o)
		}
		sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
		w.U64(uint64(len(origins)))
		for _, o := range origins {
			w.I64(int64(o))
		}
	}
	damp := sortedVPNPrefixes(s.damp)
	w.U64(uint64(len(damp)))
	for _, p := range damp {
		d := s.damp[p]
		addr.SaveVPNPrefix(w, p)
		w.F64(d.penalty)
		w.I64(int64(d.last))
		w.Bool(d.suppressed)
	}
	prev := sortedVPNPrefixes(s.prevHad)
	w.U64(uint64(len(prev)))
	for _, p := range prev {
		addr.SaveVPNPrefix(w, p)
	}
	flap := sortedVPNPrefixes(s.flapPending)
	w.U64(uint64(len(flap)))
	for _, p := range flap {
		addr.SaveVPNPrefix(w, p)
	}
}

func (s *Speaker) loadState(r *snapshot.Reader) error {
	s.Received = int(r.I64())
	s.Retained = int(r.I64())
	ne := r.Count(8)
	s.exports = make([]*VPNRoute, 0, ne)
	for i := 0; i < ne; i++ {
		s.exports = append(s.exports, loadRoute(r))
	}
	np := r.Count(8)
	s.adjRIBIn = make(map[addr.VPNPrefix][]*VPNRoute, np)
	for i := 0; i < np; i++ {
		p := addr.LoadVPNPrefix(r)
		nr := r.Count(8)
		rs := make([]*VPNRoute, 0, nr)
		for j := 0; j < nr; j++ {
			rs = append(rs, loadRoute(r))
		}
		if r.Err() != nil {
			return r.Err()
		}
		s.adjRIBIn[p] = rs
	}
	ns := r.Count(4)
	s.stale = nil
	if ns > 0 {
		s.stale = make(map[addr.VPNPrefix]map[topo.NodeID]bool, ns)
	}
	for i := 0; i < ns; i++ {
		p := addr.LoadVPNPrefix(r)
		no := r.Count(1)
		origins := make(map[topo.NodeID]bool, no)
		for j := 0; j < no; j++ {
			origins[topo.NodeID(r.I64())] = true
		}
		if r.Err() != nil {
			return r.Err()
		}
		s.stale[p] = origins
	}
	nd := r.Count(12)
	s.damp = nil
	if nd > 0 {
		s.damp = make(map[addr.VPNPrefix]*dampState, nd)
	}
	for i := 0; i < nd; i++ {
		p := addr.LoadVPNPrefix(r)
		d := &dampState{penalty: r.F64(), last: sim.Time(r.I64()), suppressed: r.Bool()}
		if r.Err() != nil {
			return r.Err()
		}
		s.damp[p] = d
	}
	nprev := r.Count(3)
	s.prevHad = nil
	if nprev > 0 {
		s.prevHad = make(map[addr.VPNPrefix]bool, nprev)
	}
	for i := 0; i < nprev; i++ {
		s.prevHad[addr.LoadVPNPrefix(r)] = true
	}
	nf := r.Count(3)
	s.flapPending = nil
	if nf > 0 {
		s.flapPending = make(map[addr.VPNPrefix]bool, nf)
	}
	for i := 0; i < nf; i++ {
		s.flapPending[addr.LoadVPNPrefix(r)] = true
	}
	return r.Err()
}

// SaveState serializes the mesh: per-speaker RIB and ledger state, session
// states, and counters. Layout, clock, and damping thresholds are scenario
// configuration, rebuilt rather than serialized.
func (m *Mesh) SaveState(w *snapshot.Writer) {
	w.I64(int64(m.UpdatesSent))
	w.I64(int64(m.SessionFlaps))
	w.I64(int64(m.StaleRetained))
	w.I64(int64(m.StaleSwept))
	w.I64(int64(m.WithdrawalsSent))
	w.I64(int64(m.RouteSuppressions))
	w.I64(int64(m.RouteReuses))
	w.I64(int64(m.LoopPrevented))
	nodes := make([]topo.NodeID, 0, len(m.peerState))
	for n := range m.peerState {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	w.U64(uint64(len(nodes)))
	for _, n := range nodes {
		w.I64(int64(n))
		w.I64(int64(m.peerState[n]))
	}
	w.U64(uint64(len(m.newlySuppressed)))
	for _, p := range m.newlySuppressed {
		addr.SaveVPNPrefix(w, p)
	}
	ids := m.sortedIDs()
	w.U64(uint64(len(ids)))
	for _, id := range ids {
		w.I64(int64(id))
		m.speakers[id].saveState(w)
	}
}

// LoadState replaces the mesh's dynamic state and reruns best-path
// selection everywhere (loc-RIB is derived, never serialized).
func (m *Mesh) LoadState(r *snapshot.Reader) error {
	m.UpdatesSent = int(r.I64())
	m.SessionFlaps = int(r.I64())
	m.StaleRetained = int(r.I64())
	m.StaleSwept = int(r.I64())
	m.WithdrawalsSent = int(r.I64())
	m.RouteSuppressions = int(r.I64())
	m.RouteReuses = int(r.I64())
	m.LoopPrevented = int(r.I64())
	nst := r.Count(2)
	m.peerState = nil
	if nst > 0 {
		m.peerState = make(map[topo.NodeID]PeerState, nst)
	}
	for i := 0; i < nst; i++ {
		n := topo.NodeID(r.I64())
		m.peerState[n] = PeerState(r.I64())
	}
	nsup := r.Count(3)
	m.newlySuppressed = nil
	for i := 0; i < nsup; i++ {
		m.newlySuppressed = append(m.newlySuppressed, addr.LoadVPNPrefix(r))
	}
	nsp := r.Count(3)
	for i := 0; i < nsp; i++ {
		id := topo.NodeID(r.I64())
		s, ok := m.speakers[id]
		if !ok {
			return fmt.Errorf("%w: BGP speaker %d not in scenario", snapshot.ErrMismatch, id)
		}
		if err := s.loadState(r); err != nil {
			return err
		}
	}
	for _, s := range m.speakers {
		s.selectBest()
	}
	return r.Err()
}
