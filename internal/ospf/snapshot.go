package ospf

import (
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

// routeState walks one SPF route after its destination, which is its key:
// two varints and a next-hop count at least.
func routeState(c *snapshot.Codec, rt *Route) {
	snapshot.Int(c, &rt.NextHop)
	snapshot.Int(c, &rt.Metric)
	snapshot.Slice(c, &rt.NextHops, 1, snapshot.Int[topo.LinkID])
	if c.Loading() && (len(rt.NextHops) == 0 || rt.NextHops[0] != rt.NextHop) {
		c.Corrupt("route whose next hop is not the first of its next hops")
	}
}

// instanceState walks one instance: originate sequence, LSDB by origin, and
// SPF routes by destination, each as the map it once was. Both are indexed
// by rank, so an origin or a destination outside the domain is refused by
// its key before anything is stored; an LSA's neighbour may be a customer
// stub outside the domain, but not a node outside the graph.
func (d *Domain) instanceState(c *snapshot.Codec, in *Instance) {
	snapshot.Int(c, &in.seq)
	if c.Loading() {
		clear(in.lsdb)
		clear(in.routes)
	}
	snapshot.Dense(c, in.lsdb, (*LSA).held, 1+3, d.idx.Key, lsaState)
	snapshot.Dense(c, in.routes, (*Route).valid, 1+3, d.idx.Key, routeState)
	if c.Loading() {
		for v, node := range d.idx.Nodes {
			lsa := &in.lsdb[v]
			if lsa.held() && lsa.Origin != node {
				c.Corrupt("LSA of node %d filed under node %d", lsa.Origin, node)
			}
			for _, l := range lsa.Links {
				if l.Neighbor < 0 || int(l.Neighbor) >= d.G.NumNodes() {
					c.Corrupt("LSA of node %d names neighbour %d, outside the graph", node, l.Neighbor)
				}
			}
			if in.routes[v].valid() {
				in.routes[v].Dest = node
			}
		}
		// ISPF state is derived, not serialized: drop it and let the next
		// recompute fall back to a full SPF, which rebuilds it. The full
		// path is route-identical to the incremental one, so resumed runs
		// stay byte-identical to uninterrupted ones.
		in.outbox, in.ispf = nil, nil
		clear(in.changed)
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
	snapshot.Dense(c, d.Instances, func(**Instance) bool { return true }, 4, d.idx.Key,
		func(c *snapshot.Codec, in **Instance) { d.instanceState(c, *in) })
}
