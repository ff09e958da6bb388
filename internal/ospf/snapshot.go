package ospf

import (
	"cmp"

	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

// lsaState walks one LSA; it writes its origin, its sequence number and a
// link count at least, and each link is three varints.
func lsaState(c *snapshot.Codec, lsa *LSA) {
	snapshot.Int(c, &lsa.Origin)
	snapshot.Int(c, &lsa.Seq)
	snapshot.Slice(c, &lsa.Links, 3, func(c *snapshot.Codec, l *LSALink) {
		snapshot.Int(c, &l.Neighbor)
		snapshot.Int(c, &l.Metric)
		snapshot.Int(c, &l.LinkID)
	})
}

// routeState walks one SPF route: three varints and a next-hop count at
// least.
func routeState(c *snapshot.Codec, rt *Route) {
	snapshot.Int(c, &rt.Dest)
	snapshot.Int(c, &rt.NextHop)
	snapshot.Int(c, &rt.Metric)
	snapshot.Slice(c, &rt.NextHops, 1, snapshot.Int[topo.LinkID])
}

// instanceState walks one instance: originate sequence, LSDB by origin, and
// SPF routes by destination.
func instanceState(c *snapshot.Codec, in *Instance) {
	snapshot.Int(c, &in.seq)
	snapshot.Map(c, &in.lsdb, cmp.Compare[topo.NodeID], 1+3, snapshot.Int[topo.NodeID], lsaState)
	snapshot.Keyed(c, &in.routes, cmp.Compare[topo.NodeID], 4, func(rt *Route) topo.NodeID { return rt.Dest }, routeState)
	if c.Loading() {
		// ISPF state is derived, not serialized: drop it and let the next
		// recompute fall back to a full SPF, which rebuilds it. The full
		// path is route-identical to the incremental one, so resumed runs
		// stay byte-identical to uninterrupted ones.
		in.outbox, in.ispf, in.changed = nil, nil, nil
	}
}

// State walks the domain's dynamic state: the flooding counters, then every
// instance's LSDB, originate sequence, and SPF routes, overlaid onto the
// instances the scenario rebuilt. Routes are serialized rather than
// recomputed at restore because a pending reconverge event legitimately
// leaves them lagging the live topology — recomputing would fold in changes
// the control plane has not yet reacted to.
func (d *Domain) State(c *snapshot.Codec) {
	snapshot.Int(c, &d.MessagesSent)
	snapshot.Int(c, &d.FloodRounds)
	// An instance writes its node, its sequence number and two counts.
	snapshot.Overlay(c, d.Instances, cmp.Compare[topo.NodeID], 4, "IGP instance for node", snapshot.Int[topo.NodeID], instanceState)
}
