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

// routeTable is the section's table of distinct routes. Speakers share
// routes by pointer — one announcement, many holders — so the section writes
// each route once, by value, and every exports and adj-RIB-in entry after it
// as the route's position in the table. A load allocates one VPNRoute per
// table entry and hands out those pointers, so the sharing survives.
type routeTable struct {
	routes []*VPNRoute
	index  map[*VPNRoute]int // saving only: each route's position in routes
}

// add appends the routes of rs the table does not hold yet.
func (t *routeTable) add(rs []*VPNRoute) {
	for _, r := range rs {
		if _, ok := t.index[r]; !ok {
			t.index[r] = len(t.routes)
			t.routes = append(t.routes, r)
		}
	}
}

// refMin is the fewest bytes ref writes: a one-byte index.
const refMin = 1

// ref walks one entry of a route list as the route's position in the table.
// A position past the table is ErrCorrupt.
func (t *routeTable) ref(c *snapshot.Codec, r **VPNRoute) {
	k := c.U64(uint64(t.index[*r]))
	if !c.Loaded() {
		return
	}
	if k >= uint64(len(t.routes)) {
		c.Corrupt("route index %d past a table of %d", k, len(t.routes))
		return
	}
	*r = t.routes[k]
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
	snapshot.Slice(c, &s.exports, refMin, t.ref)
	snapshot.Slice(c, &s.rib.paths, refMin, t.ref)
	if c.Loaded() {
		checkRun(c, s.rib.paths)
		s.rib.sealed = len(s.rib.paths)
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
		t.index = make(map[*VPNRoute]int)
		for _, id := range m.sortedIDs() {
			t.add(m.speakers[id].exports)
			t.add(m.speakers[id].rib.paths)
		}
	}
	snapshot.Ptrs(c, &t.routes, routeMin, routeState)
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
