// Package ospf emulates a link-state interior gateway protocol in the
// style of OSPF: every router originates a link-state advertisement (LSA)
// describing its adjacencies, LSAs are flooded hop by hop, each router
// builds an identical link-state database (LSDB), and runs SPF over *its
// own database* (not the global truth) to compute next hops.
//
// The paper leans on the IGP twice: it is how PEs learn routes to each
// other's loopbacks (over which LDP then builds LSPs), and its QoS
// blindness — "routing protocols like OSPF used to build routing tables do
// not exchange QoS information" (§2.2) — is the deficiency that motivates
// RSVP-TE. The emulation therefore floods plain topology only; bandwidth
// awareness enters exclusively through the TE layer.
package ospf

import (
	"fmt"
	"sort"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/topo"
)

// LSALink is one adjacency in an LSA.
type LSALink struct {
	Neighbor topo.NodeID
	Metric   int
	LinkID   topo.LinkID // the advertising router's outgoing link
}

// LSA is a router link-state advertisement. Higher Seq supersedes.
type LSA struct {
	Origin topo.NodeID
	Seq    int
	Links  []LSALink
}

// fresher reports whether a supersedes b.
func fresher(a, b LSA) bool { return a.Seq > b.Seq }

// Route is an IGP routing-table entry: the destination router and the
// next-hop link(s) to use. With equal-cost multipath, NextHops lists every
// first-hop link on a shortest path; NextHop is the first (lowest link ID)
// for single-path callers.
type Route struct {
	Dest     topo.NodeID
	NextHop  topo.LinkID
	NextHops []topo.LinkID
	Metric   int
}

// Instance is the per-router protocol state.
type Instance struct {
	Node     topo.NodeID
	Loopback addr.IPv4
	lsdb     map[topo.NodeID]LSA
	seq      int

	// routes maps destination router -> route. Rebuilt by SPF.
	routes map[topo.NodeID]Route

	// outbox holds LSAs to flood to each neighbor on the next round.
	outbox []LSA

	// ispf is the incrementally-maintained SPF state (see ispf.go); nil
	// means the next recompute must be a full SPF, which rebuilds it.
	ispf *ispfState
	// changed accumulates destinations whose route changed, consumed by
	// TakeChangedDests for delta propagation into routers' IP tables.
	changed map[topo.NodeID]bool
}

// LSDBSize returns the number of LSAs held (for the E1 state accounting).
func (in *Instance) LSDBSize() int { return len(in.lsdb) }

// RouteTo returns the IGP route to the router dst.
func (in *Instance) RouteTo(dst topo.NodeID) (Route, bool) {
	r, ok := in.routes[dst]
	return r, ok
}

// Routes returns all routes, sorted by destination for determinism.
func (in *Instance) Routes() []Route {
	out := make([]Route, 0, len(in.routes))
	for _, r := range in.routes {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dest < out[j].Dest })
	return out
}

// Domain is one IGP flooding domain covering a topology. It owns the
// per-router instances and emulates flooding as synchronous rounds, which
// keeps convergence deterministic while still counting the messages a real
// deployment would exchange.
type Domain struct {
	G         *topo.Graph
	Instances map[topo.NodeID]*Instance

	// MessagesSent counts LSA transmissions (one LSA to one neighbor),
	// reported by the scalability experiment.
	MessagesSent int
	// FloodRounds counts synchronous rounds run to convergence.
	FloodRounds int

	// DisableISPF forces every recompute down the full-SPF path. Set it
	// before first use and leave it: it is the oracle knob the equivalence
	// tests and the E20 convergence baseline rely on.
	DisableISPF bool

	// FullSPFRuns and ISPFRuns count per-instance route recomputations by
	// kind (a seq-only refresh counts as neither: routes stand untouched).
	FullSPFRuns int
	ISPFRuns    int
}

// NewDomain creates an IGP domain over every node currently in g.
// Loopbacks are assigned from 10.255.0.0/16 by node ID.
func NewDomain(g *topo.Graph) *Domain {
	nodes := make([]topo.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = topo.NodeID(i)
	}
	return NewDomainOver(g, nodes)
}

// NewDomainOver creates an IGP domain covering only the given nodes: the
// provider's interior. Customer edge nodes added to the same graph later
// stay outside the IGP, exactly as CE routers stay outside a provider's
// OSPF in a real deployment.
func NewDomainOver(g *topo.Graph, nodes []topo.NodeID) *Domain {
	d := &Domain{G: g, Instances: make(map[topo.NodeID]*Instance)}
	for _, n := range nodes {
		d.Instances[n] = &Instance{
			Node:     n,
			Loopback: Loopback(n),
			lsdb:     make(map[topo.NodeID]LSA),
			routes:   make(map[topo.NodeID]Route),
		}
	}
	return d
}

// Loopback returns the conventional loopback address for router n.
func Loopback(n topo.NodeID) addr.IPv4 {
	return addr.IPv4(uint32(addr.MustParseIPv4("10.255.0.0")) + uint32(n))
}

// originate builds (or refreshes) the LSA for node n from the live graph.
func (d *Domain) originate(n topo.NodeID) {
	in := d.Instances[n]
	in.seq++
	lsa := LSA{Origin: n, Seq: in.seq}
	for _, lid := range d.G.OutLinks(n) {
		l := d.G.Link(lid)
		if l.Down {
			continue
		}
		lsa.Links = append(lsa.Links, LSALink{Neighbor: l.To, Metric: l.Metric, LinkID: lid})
	}
	d.install(in, lsa)
	in.outbox = append(in.outbox, lsa)
}

// Converge originates LSAs everywhere, floods to quiescence, and runs SPF
// on every router. Call it after building the topology and again after any
// topology change. Converge is always a full recompute; the incremental
// path lives in NotifyLinkChange.
func (d *Domain) Converge() {
	for _, in := range d.Instances {
		in.ispf = nil // full recompute below; skip delta tracking during flood
	}
	for n := range d.Instances {
		d.originate(n)
	}
	d.flood()
	for _, in := range d.Instances {
		d.spf(in)
	}
}

// NotifyLinkChange re-originates LSAs at both endpoints of a changed link
// and re-floods. Instances with live ISPF state have already folded the
// resulting edge deltas in during flooding, so they only re-derive routes
// (and skip even that on a seq-only refresh); instances without it fall
// back to a full SPF.
func (d *Domain) NotifyLinkChange(a, b topo.NodeID) {
	d.originate(a)
	d.originate(b)
	d.flood()
	for _, in := range d.Instances {
		switch {
		case in.ispf == nil:
			d.spf(in)
		case len(in.ispf.touched) > 0:
			d.deriveRoutes(in)
		}
	}
}

// flood runs synchronous flooding rounds until no instance has pending
// LSAs. Each round, every instance sends its outbox to all live neighbors;
// receivers accept an LSA only if it is fresher than their copy, and then
// queue it for further flooding — exactly OSPF's reliable-flooding shape,
// minus the per-packet acks.
func (d *Domain) flood() {
	type delivery struct {
		to  topo.NodeID
		lsa LSA
	}
	var deliveries []delivery // one buffer, reused by every round
	// Collect sends deterministically by node ID.
	ids := make([]topo.NodeID, 0, len(d.Instances))
	for n := range d.Instances {
		ids = append(ids, n)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for {
		deliveries = deliveries[:0]
		any := false
		for _, n := range ids {
			in := d.Instances[n]
			if len(in.outbox) == 0 {
				continue
			}
			any = true
			for _, lid := range d.G.OutLinks(n) {
				l := d.G.Link(lid)
				if l.Down {
					continue
				}
				for _, lsa := range in.outbox {
					deliveries = append(deliveries, delivery{to: l.To, lsa: lsa})
					d.MessagesSent++
				}
			}
			in.outbox = nil
		}
		if !any {
			return
		}
		d.FloodRounds++
		for _, dv := range deliveries {
			in := d.Instances[dv.to]
			if in == nil {
				continue // neighbor outside the IGP (a CE)
			}
			cur, have := in.lsdb[dv.lsa.Origin]
			if !have || fresher(dv.lsa, cur) {
				d.install(in, dv.lsa)
				in.outbox = append(in.outbox, dv.lsa)
			}
		}
	}
}

// spf computes routes for one instance from its own LSDB. The instance
// reconstructs the topology it believes in; a link is usable only if both
// endpoints advertise it (OSPF's bidirectional check). The reconstructed
// adjacency and distance field are kept as live ISPF state (unless the
// domain disables it), which install then maintains across LSA changes.
func (d *Domain) spf(in *Instance) {
	d.FullSPFRuns++
	st := &ispfState{
		adj:  make(map[topo.NodeID][]iedge),
		radj: make(map[topo.NodeID][]redge),
		dist: make(map[topo.NodeID]int),
	}
	for origin, lsa := range in.lsdb {
		for _, l := range lsa.Links {
			// Bidirectional check: neighbor must advertise origin back.
			back, ok := in.lsdb[l.Neighbor]
			if !ok {
				continue
			}
			seen := false
			for _, bl := range back.Links {
				if bl.Neighbor == origin {
					seen = true
					break
				}
			}
			if !seen {
				continue
			}
			st.adj[origin] = append(st.adj[origin], iedge{to: l.Neighbor, metric: l.Metric, link: l.LinkID})
		}
	}

	// Dijkstra over the believed topology, keeping *all* equal-cost
	// parents per node so ECMP first-hop sets can be derived.
	const inf = int(^uint(0) >> 1)
	type parent struct {
		node topo.NodeID
		link topo.LinkID
	}
	dist := st.dist
	dist[in.Node] = 0
	parents := map[topo.NodeID][]parent{}
	visited := map[topo.NodeID]bool{}
	for {
		// Extract min (deterministic by node ID tie-break). Linear scan is
		// fine at emulated scales.
		best := topo.Invalid
		bd := inf
		for n, dn := range dist {
			if visited[n] {
				continue
			}
			if dn < bd || (dn == bd && (best == topo.Invalid || n < best)) {
				best, bd = n, dn
			}
		}
		if best == topo.Invalid {
			break
		}
		visited[best] = true
		edges := st.adj[best]
		sort.Slice(edges, func(i, j int) bool { return edges[i].link < edges[j].link })
		for _, e := range edges {
			nd := bd + e.metric
			cur, have := dist[e.to]
			switch {
			case !have || nd < cur:
				dist[e.to] = nd
				parents[e.to] = []parent{{node: best, link: e.link}}
			case nd == cur:
				parents[e.to] = append(parents[e.to], parent{node: best, link: e.link})
			}
		}
	}

	// First-hop sets via memoized walk back to the source: the ECMP
	// next hops of dst are the union of its parents' first hops (a parent
	// that *is* the source contributes its connecting link).
	memo := map[topo.NodeID][]topo.LinkID{}
	var firstHops func(n topo.NodeID) []topo.LinkID
	firstHops = func(n topo.NodeID) []topo.LinkID {
		if hops, ok := memo[n]; ok {
			return hops
		}
		memo[n] = nil // break cycles defensively; Dijkstra parents are acyclic
		set := map[topo.LinkID]bool{}
		for _, p := range parents[n] {
			if p.node == in.Node {
				set[p.link] = true
				continue
			}
			for _, l := range firstHops(p.node) {
				set[l] = true
			}
		}
		hops := make([]topo.LinkID, 0, len(set))
		for l := range set {
			hops = append(hops, l)
		}
		sort.Slice(hops, func(i, j int) bool { return hops[i] < hops[j] })
		memo[n] = hops
		return hops
	}

	routes := make(map[topo.NodeID]Route, len(dist))
	for dst := range dist {
		if dst == in.Node {
			continue
		}
		hops := firstHops(dst)
		if len(hops) == 0 {
			continue
		}
		routes[dst] = Route{Dest: dst, NextHop: hops[0], NextHops: hops, Metric: dist[dst]}
	}
	in.noteChanged(routes)
	in.routes = routes

	if d.DisableISPF {
		in.ispf = nil
		return
	}
	for from, row := range st.adj {
		for _, e := range row {
			st.radj[e.to] = append(st.radj[e.to], redge{from: from, metric: e.metric, link: e.link})
		}
	}
	in.ispf = st
}

// LoopbackTable builds an IP routing table for router n mapping every
// reachable router's loopback /32 to its next-hop link. This is the IGP
// table LDP consults when binding labels to loopback FECs.
func (d *Domain) LoopbackTable(n topo.NodeID) *addr.Table[topo.LinkID] {
	t := addr.NewTable[topo.LinkID]()
	in := d.Instances[n]
	for dst, r := range in.routes {
		t.Insert(addr.HostPrefix(Loopback(dst)), r.NextHop)
	}
	return t
}

// String summarizes convergence statistics.
func (d *Domain) String() string {
	return fmt.Sprintf("ospf: %d routers, %d LSA messages, %d flood rounds",
		len(d.Instances), d.MessagesSent, d.FloodRounds)
}
