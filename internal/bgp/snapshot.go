package bgp

import (
	"cmp"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

// routeMin is the fewest bytes a route's walk writes: the prefix, six
// one-byte varints, and two empty lists.
const routeMin = addr.VPNPrefixMin + 8

// routeTable is the section's table of distinct routes. Speakers share
// routes by pointer — one announcement, many holders — so the section writes
// each route once, by value, and every exports and adj-RIB-in entry after it
// as the route's position in the table. A load hands out pointers to the
// table's routes, so the sharing survives, and routes that carry equal route
// targets or an equal cluster list share those too, as an original and its
// stamped copies do in the mesh that was saved.
type routeTable struct {
	routes   []*VPNRoute
	rts      snapshot.SharedSlice[addr.RouteTarget]
	clusters snapshot.SharedSlice[uint32]
}

// route walks one route of the table.
func (t *routeTable) route(c *snapshot.Codec, r *VPNRoute) {
	addr.VPNPrefixState(c, &r.Prefix)
	snapshot.Uint(c, &r.NextHop)
	snapshot.Uint(c, &r.Label)
	t.rts.Walk(c, &r.RTs, addr.RTMin, addr.RTState)
	snapshot.Int(c, &r.LocalPref)
	snapshot.Int(c, &r.ASPathLen)
	snapshot.Int(c, &r.OriginPE)
	snapshot.Int(c, &r.OriginatorID)
	t.clusters.Walk(c, &r.ClusterList, 1, snapshot.Uint[uint32])
}

// add appends the routes of rs the table does not hold yet. A route's slot
// is one more than its position, and only the table can vouch for it: a slot
// is believed when the table holds this very route there, so what an earlier
// save left behind, or what stamp copied along with the rest of the route,
// reads as "not in the table" without anything having been reset.
func (t *routeTable) add(rs []*VPNRoute) {
	for _, r := range rs {
		if s := r.slot; s < 1 || s > len(t.routes) || t.routes[s-1] != r {
			t.routes = append(t.routes, r)
			r.slot = len(t.routes)
		}
	}
}

// refMin is the fewest bytes one entry of refs writes: a one-byte position.
const refMin = 1

// refs walks a route list as positions in the table.
func (t *routeTable) refs(c *snapshot.Codec, rs *[]*VPNRoute) {
	snapshot.Refs(c, rs, t.routes, func(r *VPNRoute) int { return r.slot - 1 })
}

// checkRun refuses an adj-RIB-in that seal could not have left: prefixes
// must ascend and a prefix holds one route per origin.
func checkRun(c *snapshot.Codec, rs []*VPNRoute) {
	for i := 1; i < len(rs) && c.Err() == nil; i++ {
		if byPrefix(rs[i-1], rs[i]) > 0 {
			c.Corrupt("adj-RIB-in out of prefix order at %v", rs[i].Prefix)
		}
		for j := i - 1; j >= 0 && rs[j].Prefix == rs[i].Prefix; j-- {
			if rs[j].OriginPE == rs[i].OriginPE {
				c.Corrupt("adj-RIB-in holds %v from origin %d twice", rs[i].Prefix, rs[i].OriginPE)
			}
		}
	}
}

// dampMin is the fewest bytes dampStateState writes: a float64, a varint,
// a flag.
const dampMin = 10

func dampStateState(c *snapshot.Codec, d *dampState) {
	c.F64(&d.penalty)
	snapshot.Int(c, &d.last)
	c.Bool(&d.suppressed)
}

// speakerState walks one speaker: exports and adj-RIB-in as references into
// the route table (order preserved — the run is sorted by prefix, and inside
// a prefix the decision process keeps the first route on full ties, so order
// is semantics), graceful-restart stale marks, and the damping ledger.
// loc-RIB is recomputed after a load.
func (t *routeTable) speakerState(c *snapshot.Codec, s *Speaker) {
	snapshot.Int(c, &s.Received)
	snapshot.Int(c, &s.Retained)
	t.refs(c, &s.exports)
	t.refs(c, &s.rib.paths)
	if c.Loaded() {
		checkRun(c, s.rib.paths)
	}
	snapshot.Map(c, &s.stale, addr.CompareVPNPrefix, addr.VPNPrefixMin+1, addr.VPNPrefixState,
		func(c *snapshot.Codec, origins *map[topo.NodeID]bool) {
			snapshot.Set(c, origins, cmp.Compare[topo.NodeID], 1, snapshot.Int[topo.NodeID])
		})
	snapshot.MapPtrs(c, &s.damp, addr.CompareVPNPrefix, addr.VPNPrefixMin+dampMin, addr.VPNPrefixState, dampStateState)
	snapshot.Set(c, &s.prevHad, addr.CompareVPNPrefix, addr.VPNPrefixMin, addr.VPNPrefixState)
	snapshot.Set(c, &s.flapPending, addr.CompareVPNPrefix, addr.VPNPrefixMin, addr.VPNPrefixState)
}

// State walks the mesh: counters, session states, the route table, and
// per-speaker RIB and ledger state. A route's index is its place in the
// order a save first meets it: speakers ascending, exports before
// adj-RIB-in. Layout, clock, and damping thresholds are scenario
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
	var t routeTable
	if !c.Loading() {
		refs := 0
		for _, id := range m.sortedIDs() {
			s := m.speakers[id]
			t.add(s.exports)
			t.add(s.rib.paths)
			refs += len(s.exports) + len(s.rib.paths)
		}
		// Nearly all of the section is the table and the references: a
		// route with one target and a cluster list runs to some thirty
		// bytes, a reference to three in a table of up to two million. A
		// guess that falls short costs a regrowth, not a byte.
		c.Grow(len(t.routes)*(routeMin+20) + refs*3 + len(m.speakers)*16)
	}
	snapshot.Ptrs(c, &t.routes, routeMin, t.route)
	// A speaker writes at least two counters and six empty collections.
	snapshot.Overlay(c, m.speakers, cmp.Compare[topo.NodeID], 1+8, "BGP speaker", snapshot.Int[topo.NodeID], t.speakerState)
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
