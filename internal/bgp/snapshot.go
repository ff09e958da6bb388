package bgp

import (
	"cmp"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

// routeMin is the fewest bytes routeState writes: the prefix, six one-byte
// varints, and two empty lists.
const routeMin = addr.VPNPrefixMin + 8

func routeState(c *snapshot.Codec, r *VPNRoute) {
	addr.VPNPrefixState(c, &r.Prefix)
	snapshot.Uint(c, &r.NextHop)
	snapshot.Uint(c, &r.Label)
	snapshot.Slice(c, &r.RTs, addr.RTMin, addr.RTState)
	snapshot.Int(c, &r.LocalPref)
	snapshot.Int(c, &r.ASPathLen)
	snapshot.Int(c, &r.OriginPE)
	snapshot.Int(c, &r.OriginatorID)
	snapshot.Slice(c, &r.ClusterList, 1, snapshot.Uint[uint32])
}

func routesState(c *snapshot.Codec, rs *[]*VPNRoute) {
	snapshot.Ptrs(c, rs, routeMin, routeState)
}

// dampMin is the fewest bytes dampStateState writes: a float64, a varint,
// a flag.
const dampMin = 10

func dampStateState(c *snapshot.Codec, d *dampState) {
	c.F64(&d.penalty)
	snapshot.Int(c, &d.last)
	c.Bool(&d.suppressed)
}

// speakerState walks one speaker: exports and adj-RIB-in by value (slice order
// preserved — the decision process keeps the first route on full ties, so
// order is semantics), graceful-restart stale marks, and the damping
// ledger. loc-RIB is recomputed after a load.
func speakerState(c *snapshot.Codec, s *Speaker) {
	snapshot.Int(c, &s.Received)
	snapshot.Int(c, &s.Retained)
	routesState(c, &s.exports)
	snapshot.Map(c, &s.adjRIBIn, addr.CompareVPNPrefix, addr.VPNPrefixMin+1, addr.VPNPrefixState, routesState)
	snapshot.Map(c, &s.stale, addr.CompareVPNPrefix, addr.VPNPrefixMin+1, addr.VPNPrefixState,
		func(c *snapshot.Codec, origins *map[topo.NodeID]bool) {
			snapshot.Set(c, origins, cmp.Compare[topo.NodeID], 1, snapshot.Int[topo.NodeID])
		})
	snapshot.MapPtrs(c, &s.damp, addr.CompareVPNPrefix, addr.VPNPrefixMin+dampMin, addr.VPNPrefixState, dampStateState)
	snapshot.Set(c, &s.prevHad, addr.CompareVPNPrefix, addr.VPNPrefixMin, addr.VPNPrefixState)
	snapshot.Set(c, &s.flapPending, addr.CompareVPNPrefix, addr.VPNPrefixMin, addr.VPNPrefixState)
}

// State walks the mesh: counters, session states, and per-speaker RIB and
// ledger state. Layout, clock, and damping thresholds are scenario
// configuration, rebuilt rather than serialized; loc-RIB is derived, so a
// load reruns best-path selection everywhere.
func (m *Mesh) State(c *snapshot.Codec) {
	snapshot.Int(c, &m.UpdatesSent)
	snapshot.Int(c, &m.SessionFlaps)
	snapshot.Int(c, &m.StaleRetained)
	snapshot.Int(c, &m.StaleSwept)
	snapshot.Int(c, &m.WithdrawalsSent)
	snapshot.Int(c, &m.RouteSuppressions)
	snapshot.Int(c, &m.RouteReuses)
	snapshot.Int(c, &m.LoopPrevented)
	snapshot.Map(c, &m.peerState, cmp.Compare[topo.NodeID], 2, snapshot.Int[topo.NodeID], snapshot.Int[PeerState])
	snapshot.Slice(c, &m.newlySuppressed, addr.VPNPrefixMin, addr.VPNPrefixState)
	// A speaker writes at least two counters and six empty collections.
	snapshot.Overlay(c, m.speakers, cmp.Compare[topo.NodeID], 1+8, "BGP speaker", snapshot.Int[topo.NodeID], speakerState)
	if c.Loaded() {
		for _, s := range m.speakers {
			s.selectBest()
		}
	}
}

// SaveState appends the mesh's state to w.
func (m *Mesh) SaveState(w *snapshot.Writer) { m.State(snapshot.Saver(w)) }

// LoadState replaces the mesh's dynamic state with the one r holds.
func (m *Mesh) LoadState(r *snapshot.Reader) error { return snapshot.Load(r, m.State) }
