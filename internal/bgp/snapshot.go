package bgp

import (
	"cmp"
	"slices"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

// routeTable walks the section's two tables as the mesh holds them: its
// attribute sets, each once, then its routes as (prefix, label, set). Every
// export and adj-RIB-in entry after them is a route's handle. A load shares
// equal route-target and cluster lists, as stamping shared them in the mesh
// that was saved: an original and its stamped copies share the targets, and
// a cluster's stamped sets the CLUSTER_LIST.
type routeTable struct {
	m        *Mesh
	rts      snapshot.SharedSlice[addr.RouteTarget]
	clusters snapshot.SharedSlice[uint32]
}

// setMin is the fewest bytes set writes: four one-byte varints, an empty
// list and a flag.
const setMin = 6

// set walks one attribute set. A stamped set writes its ORIGINATOR_ID and a
// CLUSTER_LIST, which no reflector leaves empty.
func (t *routeTable) set(c *snapshot.Codec, a *attrs) {
	snapshot.Uint(c, &a.NextHop)
	t.rts.Walk(c, &a.RTs, addr.RTMin, addr.RTState)
	snapshot.Int(c, &a.LocalPref)
	snapshot.Int(c, &a.ASPathLen)
	snapshot.Int(c, &a.OriginPE)
	if !c.Has(a.Reflected != nil) {
		return
	}
	if c.Loading() {
		a.Reflected = new(Reflection)
	}
	snapshot.Int(c, &a.Reflected.OriginatorID)
	t.clusters.Walk(c, &a.Reflected.ClusterList, 1, snapshot.Uint[uint32])
	if c.Loaded() && len(a.Reflected.ClusterList) == 0 {
		c.Corrupt("stamped set from originator %d without a CLUSTER_LIST", a.Reflected.OriginatorID)
	}
}

// entryMin is the fewest bytes entry writes: the prefix and two varints.
const entryMin = addr.VPNPrefixMin + 2

// tables walks the attribute sets and then the routes. A load interns each
// set, refusing one it already holds, and appends each route as it is
// decoded, doubling the table at most, never past the count: a count the
// bytes admit but do not hold costs what they do hold.
func (t *routeTable) tables(c *snapshot.Codec) {
	m := t.m
	n := m.sets.n
	if c.Loading() {
		m.sets, m.routes = setTable{}, nil
	}
	snapshot.Each(c, &n, setMin, func(c *snapshot.Codec, i int) {
		if !c.Loading() {
			t.set(c, m.sets.at(uint32(i)))
			return
		}
		var a attrs
		if t.set(c, &a); !c.Loaded() {
			return
		}
		if _, dup := m.sets.find(&a); dup {
			c.Corrupt("attribute set %d repeats an earlier one", i)
			return
		}
		m.sets.add(a)
	})
	n = len(m.routes)
	snapshot.Each(c, &n, entryMin, func(c *snapshot.Codec, i int) {
		var e entry
		if !c.Loading() {
			e = m.routes[i]
		}
		addr.VPNPrefixState(c, &e.Prefix)
		snapshot.Uint(c, &e.Label)
		snapshot.Uint(c, &e.attr)
		switch {
		case !c.Loaded():
		case int(e.attr) >= m.sets.n:
			c.Corrupt("route names attribute set %d of %d", e.attr, m.sets.n)
		default:
			if len(m.routes) == cap(m.routes) {
				m.routes = slices.Grow(m.routes, min(n-i, max(len(m.routes), 64)))
			}
			m.routes = append(m.routes, e)
		}
	})
}

// refMin is the fewest bytes one entry of refs writes: a one-byte handle.
const refMin = 1

// refs walks a run of handles.
func (t *routeTable) refs(c *snapshot.Codec, run *[]uint32) {
	snapshot.Refs(c, run, len(t.m.routes), func(h uint32) int { return int(h) }, func(k int) uint32 { return uint32(k) })
}

// checkRuns refuses runs that no speaker holds: exports ascend by prefix,
// one route each; adj-RIB-in prefixes ascend and a prefix holds one route
// per origin.
func (t *routeTable) checkRuns(c *snapshot.Codec, s *Speaker) {
	m := t.m
	for i := 1; i < len(s.exports) && c.Err() == nil; i++ {
		if addr.CompareVPNPrefix(m.routes[s.exports[i-1]].Prefix, m.routes[s.exports[i]].Prefix) >= 0 {
			c.Corrupt("exports out of prefix order at %v", m.routes[s.exports[i]].Prefix)
		}
	}
	run := s.rib.paths
	for i := 1; i < len(run) && c.Err() == nil; i++ {
		p, o := m.routes[run[i]].Prefix, m.originOf(run[i])
		if addr.CompareVPNPrefix(m.routes[run[i-1]].Prefix, p) > 0 {
			c.Corrupt("adj-RIB-in out of prefix order at %v", p)
		}
		for j := i - 1; j >= 0 && m.routes[run[j]].Prefix == p; j-- {
			if m.originOf(run[j]) == o {
				c.Corrupt("adj-RIB-in holds %v from origin %d twice", p, o)
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

// speakerState walks one speaker: exports and adj-RIB-in as handles (order
// preserved — the run is sorted by prefix, and inside a prefix the decision
// process keeps the first route on full ties, so order is semantics),
// graceful-restart stale marks, and the damping ledger. loc-RIB is
// recomputed after a load.
func (t *routeTable) speakerState(c *snapshot.Codec, s *Speaker) {
	snapshot.Int(c, &s.Received)
	snapshot.Int(c, &s.Retained)
	t.refs(c, &s.exports)
	t.refs(c, &s.rib.paths)
	if c.Loaded() {
		t.checkRuns(c, s)
	}
	snapshot.Map(c, &s.stale, addr.CompareVPNPrefix, addr.VPNPrefixMin+1, addr.VPNPrefixState,
		func(c *snapshot.Codec, origins *map[topo.NodeID]bool) {
			snapshot.Set(c, origins, cmp.Compare[topo.NodeID], 1, snapshot.Int[topo.NodeID])
		})
	snapshot.MapPtrs(c, &s.damp, addr.CompareVPNPrefix, addr.VPNPrefixMin+dampMin, addr.VPNPrefixState, dampStateState)
	snapshot.Set(c, &s.prevHad, addr.CompareVPNPrefix, addr.VPNPrefixMin, addr.VPNPrefixState)
	snapshot.Set(c, &s.flapPending, addr.CompareVPNPrefix, addr.VPNPrefixMin, addr.VPNPrefixState)
}

// State walks the mesh: counters, session states, the attribute sets and
// the route table, and every speaker's runs and ledgers, speakers
// ascending. Layout, clock, and damping thresholds are scenario
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
	ids := m.sortedIDs()
	if !c.Loading() {
		// Nearly all of the section is the route table and the handles: a
		// route runs to some twenty bytes, a handle to three in a table of
		// up to two million. A guess that falls short costs a regrowth.
		refs := 0
		for _, s := range m.speakers {
			refs += len(s.exports) + len(s.rib.paths)
		}
		c.Grow(len(m.routes)*(entryMin+8) + m.sets.n*(setMin+24) + refs*3 + len(ids)*16)
	}
	t := routeTable{m: m}
	t.tables(c)
	// A speaker writes its node, two counters and six empty collections.
	if !c.FixedLen(len(ids), 1+8, "BGP speakers") {
		return
	}
	for _, id := range ids {
		if got := topo.NodeID(c.I64(int64(id))); got != id && c.Err() == nil {
			c.Mismatch("BGP speaker %d in checkpoint, %d in scenario", got, id)
		}
		t.speakerState(c, m.speakers[id])
	}
	if c.Loaded() {
		for _, s := range m.speakers {
			s.rib.best = nil
			s.selectBest(nil)
		}
	}
}

// SaveState appends the mesh's state to w.
func (m *Mesh) SaveState(w *snapshot.Writer) { m.State(snapshot.Saver(w)) }

// LoadState replaces the mesh's dynamic state with the one r holds.
func (m *Mesh) LoadState(r *snapshot.Reader) error { return snapshot.Load(r, m.State) }
