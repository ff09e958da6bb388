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
//
// A router is its index: a Domain ranks its routers by node ID once, and
// every per-router collection in the package — Instances, each instance's
// LSDB, routes and change ledger, the believed topology and distance field
// of its ISPF state — is a slice indexed by that rank, of the domain's size
// however many customer stubs share the graph. LSAs name neighbours by node
// ID, as the wire and the checkpoint do; a neighbour outside the domain has
// no rank and drops out wherever one is looked up (DESIGN.md §13).
package ospf

import (
	"fmt"

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
	idx      *topo.Ranks

	// lsdb holds the freshest LSA of each origin. Sequence numbers start at
	// one, so Seq 0 marks an origin not heard from.
	lsdb []LSA
	seq  int

	// routes holds the route to each destination, rebuilt by SPF; one with
	// no NextHops is no route (SPF never writes such a route).
	routes []Route

	// outbox holds LSAs to flood to each neighbor on the next round.
	outbox []LSA

	// ispf is the incrementally-maintained SPF state (see ispf.go); nil
	// means the next recompute must be a full SPF, which rebuilds it.
	ispf *ispfState
	// changed marks destinations whose route changed, consumed by
	// TakeChangedDests for delta propagation into routers' IP tables.
	changed []bool
}

func (lsa *LSA) held() bool  { return lsa.Seq != 0 }
func (r *Route) valid() bool { return len(r.NextHops) > 0 }

// LSDBSize returns the number of LSAs held (for the E1 state accounting).
func (in *Instance) LSDBSize() int {
	n := 0
	for i := range in.lsdb {
		if in.lsdb[i].held() {
			n++
		}
	}
	return n
}

// RouteTo returns the IGP route to the router dst.
func (in *Instance) RouteTo(dst topo.NodeID) (Route, bool) {
	if r := in.idx.Of(dst); r >= 0 && in.routes[r].valid() {
		return in.routes[r], true
	}
	return Route{}, false
}

// Routes returns all routes, in destination order.
func (in *Instance) Routes() []Route {
	out := make([]Route, 0, len(in.routes))
	for i := range in.routes {
		if in.routes[i].valid() {
			out = append(out, in.routes[i])
		}
	}
	return out
}

// Domain is one IGP flooding domain covering a topology. It owns the
// per-router instances and emulates flooding as synchronous rounds, which
// keeps convergence deterministic while still counting the messages a real
// deployment would exchange.
type Domain struct {
	G *topo.Graph
	// Instances holds the domain's routers in rank order; Instance finds one
	// by node.
	Instances []*Instance
	idx       *topo.Ranks

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

	// Shared by every instance's computations, so that a Converge allocates
	// what its instances keep and nothing per instance besides.
	scratch
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
	d := &Domain{G: g, idx: topo.RanksOf(nodes)}
	n := len(d.idx.Nodes)
	d.marks, d.hops = make([]bool, n), make([][]topo.LinkID, n)
	for _, node := range d.idx.Nodes {
		d.Instances = append(d.Instances, &Instance{
			Node:     node,
			Loopback: Loopback(node),
			idx:      d.idx,
			lsdb:     make([]LSA, n),
			routes:   make([]Route, n),
			changed:  make([]bool, n),
		})
	}
	return d
}

// Instance returns the instance of router n, nil for a node outside the
// domain.
func (d *Domain) Instance(n topo.NodeID) *Instance {
	if r := d.idx.Of(n); r >= 0 {
		return d.Instances[r]
	}
	return nil
}

// loopbackBase is 10.255.0.0, the start of the loopback range.
const loopbackBase addr.IPv4 = 10<<24 | 255<<16

// Loopback returns the conventional loopback address for router n.
func Loopback(n topo.NodeID) addr.IPv4 { return loopbackBase + addr.IPv4(n) }

// originate builds (or refreshes) the instance's own LSA from the live graph.
func (d *Domain) originate(in *Instance) {
	in.seq++
	lsa := LSA{Origin: in.Node, Seq: in.seq}
	for _, lid := range d.G.OutLinks(in.Node) {
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
	for _, in := range d.Instances {
		d.originate(in)
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
	d.originate(d.Instance(a))
	d.originate(d.Instance(b))
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
		to  int // the receiving instance's rank
		lsa LSA
	}
	var deliveries []delivery // one buffer, reused by every round
	for {
		deliveries = deliveries[:0]
		any := false
		for _, in := range d.Instances {
			if len(in.outbox) == 0 {
				continue
			}
			any = true
			for _, lid := range d.G.OutLinks(in.Node) {
				l := d.G.Link(lid)
				if l.Down {
					continue
				}
				d.MessagesSent += len(in.outbox)
				to := d.idx.Of(l.To)
				if to < 0 {
					continue // neighbor outside the IGP (a CE)
				}
				for _, lsa := range in.outbox {
					deliveries = append(deliveries, delivery{to: to, lsa: lsa})
				}
			}
			in.outbox = in.outbox[:0]
		}
		if !any {
			return
		}
		d.FloodRounds++
		for _, dv := range deliveries {
			in := d.Instances[dv.to]
			if fresher(dv.lsa, in.lsdb[d.idx.Of(dv.lsa.Origin)]) {
				d.install(in, dv.lsa)
				in.outbox = append(in.outbox, dv.lsa)
			}
		}
	}
}

// spf computes routes for one instance from its own LSDB. The instance
// reconstructs the topology it believes in; a link is usable only if both
// endpoints advertise it (OSPF's bidirectional check). Dijkstra then runs
// over that adjacency with a binary heap, and first-hop sets are derived as
// nodes settle: a node's ECMP next hops are the union of its shortest-path
// parents' (a parent that is the source contributes the connecting link),
// and metrics are positive, so every parent has settled before its child.
// The adjacency and distance field stay behind as the instance's live ISPF
// state (unless the domain disables it), which install then maintains across
// LSA changes.
func (d *Domain) spf(in *Instance) {
	d.FullSPFRuns++
	n := len(d.Instances)
	edges := 0
	for o := range in.lsdb {
		for _, l := range in.lsdb[o].Links {
			if d.idx.Of(l.Neighbor) >= 0 {
				edges++
			}
		}
	}
	// One slab for every row: rows are cut to their length, so an edge ISPF
	// adds later moves that row out of the slab instead of into its neighbour.
	st := &ispfState{adj: make([][]iedge, n), dist: make([]int, n), sc: &d.scratch}
	slab := make([]iedge, 0, edges)
	for o := range in.lsdb {
		from := len(slab)
		slab = d.believed(in, slab, &in.lsdb[o])
		st.adj[o] = slab[from:len(slab):len(slab)]
	}

	src := d.idx.Of(in.Node)
	dist, hops := st.dist, d.hops
	for v := range dist {
		dist[v], hops[v] = unreachable, nil
	}
	dist[src] = 0
	d.heap = append(d.heap[:0], distItem{Node: src})
	for len(d.heap) > 0 {
		it := d.heap.Pop()
		if it.Dist > dist[it.Node] {
			continue // superseded by a shorter entry
		}
		for _, e := range st.adj[it.Node] {
			first := hops[it.Node]
			if it.Node == src {
				first = []topo.LinkID{e.link}
			}
			switch nd := it.Dist + e.metric; {
			case nd < dist[e.to]:
				dist[e.to], hops[e.to] = nd, first
				d.heap.Push(distItem{Node: e.to, Dist: nd})
			case nd == dist[e.to]:
				hops[e.to] = mergeHops(hops[e.to], first)
			}
		}
	}

	for v := range in.routes {
		var next Route
		if v != src && len(hops[v]) > 0 {
			next = Route{Dest: d.idx.Nodes[v], NextHop: hops[v][0], NextHops: hops[v], Metric: dist[v]}
		}
		if !sameRoute(in.routes[v], next) {
			in.routes[v], in.changed[v] = next, true
		}
	}

	if d.DisableISPF {
		in.ispf = nil
		return
	}
	// The reverse index, rows cut from one slab to their in-degree.
	indeg := make([]int, n)
	for _, e := range slab {
		indeg[e.to]++
	}
	st.radj = make([][]redge, n)
	rslab := make([]redge, len(slab))
	for v, at := 0, 0; v < n; v++ {
		st.radj[v] = rslab[at : at : at+indeg[v]]
		at += indeg[v]
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
	for _, r := range d.Instance(n).Routes() {
		t.Insert(addr.HostPrefix(Loopback(r.Dest)), r.NextHop)
	}
	return t
}

// String summarizes convergence statistics.
func (d *Domain) String() string {
	return fmt.Sprintf("ospf: %d routers, %d LSA messages, %d flood rounds",
		len(d.Instances), d.MessagesSent, d.FloodRounds)
}
