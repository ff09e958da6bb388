// Package topo models the provider backbone as a graph: routers connected
// by duplex links with bandwidth, propagation delay, and an IGP metric. It
// provides shortest-path-first (Dijkstra) computation for the IGP and
// constrained SPF (CSPF) — the resource-aware path selection the paper's
// §2.2 identifies as the missing piece in plain IP routing — for RSVP-TE,
// and one incremental shortest-path engine (SSSP) that keeps both the IGP's
// routes and the TE trees current across single-link events.
package topo

import (
	"fmt"

	"mplsvpn/internal/sim"
)

// NodeID identifies a router in the topology. IDs are dense small integers
// assigned in creation order.
type NodeID int

// Invalid is the zero-value-adjacent sentinel for "no node".
const Invalid NodeID = -1

// Node is a router in the graph.
type Node struct {
	ID   NodeID
	Name string
}

// LinkID identifies one *directed* half of a duplex link.
type LinkID int

// Link is a directed edge. AddDuplexLink creates both directions with
// matching parameters; the two halves have independent state (utilization,
// reservation) because traffic and reservations are directional.
type Link struct {
	ID        LinkID
	From      NodeID
	To        NodeID
	Bandwidth float64  // bits per second
	Delay     sim.Time // propagation delay
	Metric    int      // IGP cost
	Down      bool     // administratively or failure down; written only by Graph.SetDown

	// ReservedBw is bandwidth claimed by RSVP-TE reservations (bits/s).
	ReservedBw float64
}

// AvailableBw returns the unreserved bandwidth on the link.
func (l *Link) AvailableBw() float64 { return l.Bandwidth - l.ReservedBw }

// Graph is the backbone topology. It is not safe for concurrent mutation;
// the simulator is single-threaded.
type Graph struct {
	nodes  []Node
	links  []Link
	out    [][]LinkID // adjacency: out[n] = links leaving n
	in     [][]LinkID // reverse adjacency: in[n] = links entering n
	byName map[string]NodeID

	onLinkState []func(id LinkID, down bool)
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{byName: make(map[string]NodeID)}
}

// AddNode creates a router with the given name. Names must be unique.
func (g *Graph) AddNode(name string) NodeID {
	if _, dup := g.byName[name]; dup {
		panic(fmt.Sprintf("topo: duplicate node name %q", name))
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.byName[name] = id
	return id
}

// NodeByName looks a router up by name.
func (g *Graph) NodeByName(name string) (NodeID, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// Name returns the name of node n.
func (g *Graph) Name(n NodeID) string { return g.nodes[n].Name }

// NumNodes returns the number of routers.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the number of directed links.
func (g *Graph) NumLinks() int { return len(g.links) }

// AddDuplexLink connects a and b in both directions with the same bandwidth
// (bits/s), propagation delay, and IGP metric. It returns the two directed
// link IDs (a→b, b→a).
func (g *Graph) AddDuplexLink(a, b NodeID, bandwidth float64, delay sim.Time, metric int) (LinkID, LinkID) {
	if metric <= 0 {
		panic("topo: IGP metric must be positive")
	}
	ab := g.addLink(a, b, bandwidth, delay, metric)
	ba := g.addLink(b, a, bandwidth, delay, metric)
	return ab, ba
}

func (g *Graph) addLink(from, to NodeID, bw float64, delay sim.Time, metric int) LinkID {
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{
		ID: id, From: from, To: to,
		Bandwidth: bw, Delay: delay, Metric: metric,
	})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id
}

// Link returns a pointer to the directed link record (mutable: RSVP updates
// ReservedBw through it).
func (g *Graph) Link(id LinkID) *Link { return &g.links[id] }

// OutLinks returns the IDs of links leaving n.
func (g *Graph) OutLinks(n NodeID) []LinkID { return g.out[n] }

// InLinks returns the IDs of links entering n, in creation order.
func (g *Graph) InLinks(n NodeID) []LinkID { return g.in[n] }

// FindLink returns the directed link from a to b, if any. With parallel
// links it returns the lowest-metric one.
func (g *Graph) FindLink(a, b NodeID) (*Link, bool) {
	var best *Link
	for _, id := range g.out[a] {
		l := &g.links[id]
		if l.To == b && (best == nil || l.Metric < best.Metric) {
			best = l
		}
	}
	return best, best != nil
}

// Reverse returns the opposite direction of link id, if present.
func (g *Graph) Reverse(id LinkID) (*Link, bool) {
	l := g.Link(id)
	return g.FindLink(l.To, l.From)
}

// SetDown is the one place a directed link's state is written: failures,
// restarts, inter-AS outages and checkpoint loads all funnel through it, so
// the observers registered with OnLinkState see every transition (and only
// transitions — setting the state a link already has is a no-op).
func (g *Graph) SetDown(id LinkID, down bool) {
	l := &g.links[id]
	if l.Down == down {
		return
	}
	l.Down = down
	for _, fn := range g.onLinkState {
		fn(id, down)
	}
}

// OnLinkState registers fn to run after every link-state transition. The
// data plane uses it to settle the packet in mid-serialization on a link
// that just died or came back.
func (g *Graph) OnLinkState(fn func(id LinkID, down bool)) {
	g.onLinkState = append(g.onLinkState, fn)
}

// SetLinkDown marks both directions between a and b as down (or up).
func (g *Graph) SetLinkDown(a, b NodeID, down bool) {
	for i := range g.links {
		l := &g.links[i]
		if (l.From == a && l.To == b) || (l.From == b && l.To == a) {
			g.SetDown(l.ID, down)
		}
	}
}

// Path is a sequence of directed links from a source to a destination.
type Path struct {
	Links []LinkID
}

// Nodes expands the path into the node sequence it visits.
func (p Path) Nodes(g *Graph) []NodeID {
	if len(p.Links) == 0 {
		return nil
	}
	out := []NodeID{g.Link(p.Links[0]).From}
	for _, id := range p.Links {
		out = append(out, g.Link(id).To)
	}
	return out
}

// Cost sums the IGP metrics along the path.
func (p Path) Cost(g *Graph) int {
	c := 0
	for _, id := range p.Links {
		c += g.Link(id).Metric
	}
	return c
}

// Delay sums the propagation delays along the path.
func (p Path) Delay(g *Graph) sim.Time {
	var d sim.Time
	for _, id := range p.Links {
		d += g.Link(id).Delay
	}
	return d
}

// String renders "A -> B -> C" using node names.
func (p Path) String(g *Graph) string {
	ns := p.Nodes(g)
	s := ""
	for i, n := range ns {
		if i > 0 {
			s += " -> "
		}
		s += g.Name(n)
	}
	return s
}
