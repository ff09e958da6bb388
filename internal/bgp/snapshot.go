package bgp

import (
	"cmp"
	"slices"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

// routeMin is the fewest bytes a route's walk writes: the prefix, six
// one-byte varints, and two empty lists.
const routeMin = addr.VPNPrefixMin + 8

// routeTable is the section's table of distinct routes. Speakers share
// routes by handle — one announcement, many holders — so the section writes
// each route once, by value, and every exports and adj-RIB-in entry after it
// as the route's position in the table. A save numbers the handles it meets
// through the mesh's renumber scratch; a load enters the table's routes into
// the mesh's route table from handle base on, so the sharing survives, and
// routes that carry equal route targets or an equal reflection share those
// too, as an original and its stamped copies do in the mesh that was saved.
type routeTable struct {
	m        *Mesh
	routes   []*VPNRoute
	base     uint32
	rts      snapshot.SharedSlice[addr.RouteTarget]
	clusters snapshot.SharedSlice[uint32]
	// refls holds a load's Reflections by originator and CLUSTER_LIST.
	refls map[reflKey]*Reflection
}

// reflKey names a loaded Reflection: its originator and its CLUSTER_LIST's
// backing array, which the clusters walk shares between equal lists.
type reflKey struct {
	originator topo.NodeID
	list       *uint32
}

// route walks one route of the table. An unstamped route writes the
// reflection attributes a stamped one carries as a zero ORIGINATOR_ID and an
// empty CLUSTER_LIST.
func (t *routeTable) route(c *snapshot.Codec, r *VPNRoute) {
	addr.VPNPrefixState(c, &r.Prefix)
	snapshot.Uint(c, &r.NextHop)
	snapshot.Uint(c, &r.Label)
	t.rts.Walk(c, &r.RTs, addr.RTMin, addr.RTState)
	snapshot.Int(c, &r.LocalPref)
	snapshot.Int(c, &r.ASPathLen)
	snapshot.Int(c, &r.OriginPE)
	var refl Reflection
	if r.Reflected != nil {
		refl = *r.Reflected
	}
	snapshot.Int(c, &refl.OriginatorID)
	t.clusters.Walk(c, &refl.ClusterList, 1, snapshot.Uint[uint32])
	if c.Loaded() {
		r.Reflected = t.reflection(c, refl.OriginatorID, refl.ClusterList)
	}
}

// reflection returns the Reflection a loaded route carries: none for an
// empty CLUSTER_LIST, and one per originator and list otherwise. An
// ORIGINATOR_ID without a CLUSTER_LIST is no route a reflector stamped.
func (t *routeTable) reflection(c *snapshot.Codec, o topo.NodeID, list []uint32) *Reflection {
	if len(list) == 0 {
		if o != 0 {
			c.Corrupt("route carries ORIGINATOR_ID %d without a CLUSTER_LIST", o)
		}
		return nil
	}
	key := reflKey{o, &list[0]}
	p := t.refls[key]
	if p == nil {
		if t.refls == nil {
			t.refls = make(map[reflKey]*Reflection)
		}
		p = &Reflection{OriginatorID: o, ClusterList: list}
		t.refls[key] = p
	}
	return p
}

// number lays out a save's table: every route an export or an adj-RIB-in
// references, in the order the save first meets it — speakers ascending,
// exports before adj-RIB-in — with renumber giving each handle one more than
// its position. It returns how many references the save writes.
func (t *routeTable) number() (refs int) {
	m := t.m
	if len(m.renumber) < len(m.routes) {
		m.renumber = make([]int32, len(m.routes))
	}
	pos := m.renumber[:len(m.routes)]
	clear(pos)
	for _, id := range m.sortedIDs() {
		s := m.speakers[id]
		for _, run := range [2][]uint32{s.exports, s.rib.paths} {
			for _, h := range run {
				if pos[h] == 0 {
					t.routes = append(t.routes, m.routes[h])
					pos[h] = int32(len(t.routes))
				}
			}
			refs += len(run)
		}
	}
	return refs
}

// refMin is the fewest bytes one entry of refs writes: a one-byte position.
const refMin = 1

// refs walks a run of handles as positions in the table.
func (t *routeTable) refs(c *snapshot.Codec, run *[]uint32) {
	snapshot.Refs(c, run, len(t.routes),
		func(h uint32) int { return int(t.m.renumber[h] - 1) },
		func(k int) uint32 { return t.base + uint32(k) })
}

// checkRun refuses an adj-RIB-in that seal could not have left: prefixes
// must ascend and a prefix holds one route per origin.
func (t *routeTable) checkRun(c *snapshot.Codec, run []uint32) {
	routes := t.m.routes
	for i := 1; i < len(run) && c.Err() == nil; i++ {
		r := routes[run[i]]
		if byPrefix(routes[run[i-1]], r) > 0 {
			c.Corrupt("adj-RIB-in out of prefix order at %v", r.Prefix)
		}
		for j := i - 1; j >= 0 && routes[run[j]].Prefix == r.Prefix; j-- {
			if routes[run[j]].OriginPE == r.OriginPE {
				c.Corrupt("adj-RIB-in holds %v from origin %d twice", r.Prefix, r.OriginPE)
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
		s.disordered = !slices.IsSortedFunc(s.exports, func(a, b uint32) int { return byPrefix(t.m.routes[a], t.m.routes[b]) })
		t.checkRun(c, s.rib.paths)
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
	t := routeTable{m: m}
	if !c.Loading() {
		refs := t.number()
		// Nearly all of the section is the table and the references: a
		// route with one target and a cluster list runs to some thirty
		// bytes, a reference to three in a table of up to two million. A
		// guess that falls short costs a regrowth, not a byte.
		c.Grow(len(t.routes)*(routeMin+20) + refs*3 + len(m.speakers)*16)
	}
	snapshot.Ptrs(c, &t.routes, routeMin, t.route)
	if c.Loaded() {
		t.base = uint32(len(m.routes))
		m.routes = append(m.routes, t.routes...)
	}
	// A speaker writes at least two counters and six empty collections.
	snapshot.Overlay(c, m.speakers, cmp.Compare[topo.NodeID], 1+8, "BGP speaker", snapshot.Int[topo.NodeID], t.speakerState)
	if c.Loaded() {
		for _, s := range m.speakers {
			s.rib.best = nil
		}
		m.compact(0, make([]uint32, len(m.routes)))
		for _, s := range m.speakers {
			s.selectBest(nil)
		}
	}
}

// SaveState appends the mesh's state to w.
func (m *Mesh) SaveState(w *snapshot.Writer) { m.State(snapshot.Saver(w)) }

// LoadState replaces the mesh's dynamic state with the one r holds.
func (m *Mesh) LoadState(r *snapshot.Reader) error { return snapshot.Load(r, m.State) }
