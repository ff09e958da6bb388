package ospf

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

// referenceSPF is the full SPF this package ran while its state lived in
// maps keyed by node ID, kept as the oracle for the heap Dijkstra over
// rank-indexed slices: the believed topology under the bidirectional check,
// an extract-min that scans the distance map, every equal-cost parent, and
// first-hop sets by a memoized walk back to the source.
func referenceSPF(self topo.NodeID, lsdb map[topo.NodeID]LSA) map[topo.NodeID]Route {
	type edge struct {
		to     topo.NodeID
		metric int
		link   topo.LinkID
	}
	adj := map[topo.NodeID][]edge{}
	for origin, lsa := range lsdb {
		for _, l := range lsa.Links {
			back, ok := lsdb[l.Neighbor]
			if !ok || !advertises(back.Links, origin) {
				continue
			}
			adj[origin] = append(adj[origin], edge{l.Neighbor, l.Metric, l.LinkID})
		}
	}

	type parent struct {
		node topo.NodeID
		link topo.LinkID
	}
	dist := map[topo.NodeID]int{self: 0}
	parents := map[topo.NodeID][]parent{}
	visited := map[topo.NodeID]bool{}
	for {
		best, bd := topo.Invalid, 0
		for n, dn := range dist {
			if !visited[n] && (best == topo.Invalid || dn < bd || (dn == bd && n < best)) {
				best, bd = n, dn
			}
		}
		if best == topo.Invalid {
			break
		}
		visited[best] = true
		for _, e := range adj[best] {
			nd := bd + e.metric
			cur, have := dist[e.to]
			switch {
			case !have || nd < cur:
				dist[e.to] = nd
				parents[e.to] = []parent{{best, e.link}}
			case nd == cur:
				parents[e.to] = append(parents[e.to], parent{best, e.link})
			}
		}
	}

	memo := map[topo.NodeID][]topo.LinkID{}
	var firstHops func(n topo.NodeID) []topo.LinkID
	firstHops = func(n topo.NodeID) []topo.LinkID {
		if hops, ok := memo[n]; ok {
			return hops
		}
		memo[n] = nil
		set := map[topo.LinkID]bool{}
		for _, p := range parents[n] {
			if p.node == self {
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
		slices.Sort(hops)
		memo[n] = hops
		return hops
	}
	routes := map[topo.NodeID]Route{}
	for dst := range dist {
		if hops := firstHops(dst); dst != self && len(hops) > 0 {
			routes[dst] = Route{Dest: dst, NextHop: hops[0], NextHops: hops, Metric: dist[dst]}
		}
	}
	return routes
}

// lsdbMap returns the instance's database as the map it stands for.
func lsdbMap(in *Instance) map[topo.NodeID]LSA {
	out := map[topo.NodeID]LSA{}
	for _, lsa := range in.lsdb {
		if lsa.held() {
			out[lsa.Origin] = lsa
		}
	}
	return out
}

// sparseNet is a graph of a thousand nodes with a routing domain over a few
// of them, far apart in node ID — {3, 40, 41, 900} and more — so that a
// router's rank in the domain is never its ID. Every member also has a link
// to a node outside the domain, as a PE has its customer stubs.
type sparseNet struct {
	g       *topo.Graph
	members []topo.NodeID
	links   []topo.LinkID // the directed links between members
}

func newSparseNet(rng *rand.Rand) *sparseNet {
	n := &sparseNet{g: topo.New(), members: []topo.NodeID{3, 40, 41, 900}}
	for i := 0; i < 1024; i++ { // members stay below 1000: room for a stub above each
		n.g.AddNode(fmt.Sprintf("n%d", i))
	}
	for extra := rng.Intn(9); extra > 0; extra-- {
		n.members = append(n.members, topo.NodeID(rng.Intn(1000)))
	}
	slices.Sort(n.members)
	n.members = slices.Compact(n.members)
	rng.Shuffle(len(n.members), func(i, j int) { n.members[i], n.members[j] = n.members[j], n.members[i] })
	link := func(a, z topo.NodeID, metric int) {
		az, za := n.g.AddDuplexLink(a, z, 1e9, sim.Millisecond, metric)
		n.links = append(n.links, az, za)
	}
	// A chain through the members, then chords: metrics 1-3 on so few nodes
	// tie often, and a chord may double a chain link (parallel links).
	for i := 1; i < len(n.members); i++ {
		link(n.members[i-1], n.members[i], 1+rng.Intn(3))
	}
	for chords := len(n.members) + rng.Intn(6); chords > 0; chords-- {
		if a, z := n.members[rng.Intn(len(n.members))], n.members[rng.Intn(len(n.members))]; a != z {
			link(a, z, 1+rng.Intn(3))
		}
	}
	for _, m := range n.members {
		stub := m + 1
		for slices.Contains(n.members, stub) {
			stub++
		}
		n.g.AddDuplexLink(m, stub, 1e9, sim.Millisecond, 1)
	}
	return n
}

// disturb takes some directed links down and brings others back, one
// direction at a time: a link up one way only is advertised by one end and
// fails the bidirectional check, and enough of them partition the domain.
func (n *sparseNet) disturb(rng *rand.Rand) {
	for k := 1 + rng.Intn(4); k > 0; k-- {
		lid := n.links[rng.Intn(len(n.links))]
		n.g.SetDown(lid, !n.g.Link(lid).Down)
	}
	if rng.Intn(3) == 0 {
		n.g.Link(n.links[rng.Intn(len(n.links))]).Metric = 1 + rng.Intn(3)
	}
}

// TestFullSPFMatchesReference: after every full convergence of a random
// sequence of disturbances, every instance's routes are the reference's over
// the same database, and its changed-destination ledger is the difference
// between the reference's tables before and after, in node order.
func TestFullSPFMatchesReference(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	partitioned, oneWay, ecmp := 0, 0, 0
	for seed := int64(1); seed <= int64(rounds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := newSparseNet(rng)
		d := NewDomainOver(n.g, n.members)
		prev := make([]map[topo.NodeID]Route, len(d.Instances))
		for step := 0; step < 8; step++ {
			d.Converge()
			for r, in := range d.Instances {
				if in.Node != d.idx.Nodes[r] || (r > 0 && in.Node <= d.Instances[r-1].Node) {
					t.Fatalf("seed %d: instance %d is node %d: not in rank order", seed, r, in.Node)
				}
				want := referenceSPF(in.Node, lsdbMap(in))
				if got := routeMap(in); !sameRouteTable(got, want) {
					t.Fatalf("seed %d step %d node %d: routes\n  %v, reference says\n  %v", seed, step, in.Node, got, want)
				}
				var ledger []topo.NodeID
				for dst := range routeDiff(prev[r], want) {
					ledger = append(ledger, dst)
				}
				slices.Sort(ledger)
				if got := in.TakeChangedDests(); !slices.Equal(got, ledger) {
					t.Fatalf("seed %d step %d node %d: changed %v, reference tables differ at %v", seed, step, in.Node, got, ledger)
				}
				prev[r] = want
				if len(want) < len(d.Instances)-1 {
					partitioned++
				}
				for _, rt := range want {
					if len(rt.NextHops) > 1 {
						ecmp++
					}
				}
			}
			for _, lid := range n.links {
				if rev, _ := n.g.Reverse(lid); n.g.Link(lid).Down != rev.Down {
					oneWay++
				}
			}
			n.disturb(rng)
		}
	}
	if partitioned == 0 || oneWay == 0 || ecmp == 0 {
		t.Fatalf("generator lost a case: %d partitioned tables, %d one-way links, %d ECMP routes", partitioned, oneWay, ecmp)
	}
}

// mapInstance is an instance as it was held before the slices: the state
// walk below is the one this package had then, and TestIGPStateIsTheMapEncoding
// holds Domain.State to its bytes.
type mapInstance struct {
	seq    int
	lsdb   map[topo.NodeID]LSA
	routes map[topo.NodeID]Route
}

func mapEncoding(d *Domain) []byte {
	var w snapshot.Writer
	c := snapshot.Saver(&w)
	instances := map[topo.NodeID]*mapInstance{}
	for _, in := range d.Instances {
		instances[in.Node] = &mapInstance{in.seq, lsdbMap(in), routeMap(in)}
	}
	snapshot.Int(c, &d.MessagesSent)
	snapshot.Int(c, &d.FloodRounds)
	snapshot.Overlay(c, instances, cmp.Compare[topo.NodeID], 4, "IGP instance for node", snapshot.Int[topo.NodeID],
		func(c *snapshot.Codec, in *mapInstance) {
			snapshot.Int(c, &in.seq)
			snapshot.Map(c, &in.lsdb, cmp.Compare[topo.NodeID], 1+3, snapshot.Int[topo.NodeID], func(c *snapshot.Codec, lsa *LSA) {
				snapshot.Int(c, &lsa.Origin)
				snapshot.Int(c, &lsa.Seq)
				snapshot.Slice(c, &lsa.Links, 3, func(c *snapshot.Codec, l *LSALink) {
					snapshot.Int(c, &l.Neighbor)
					snapshot.Int(c, &l.Metric)
					snapshot.Int(c, &l.LinkID)
				})
			})
			snapshot.Keyed(c, &in.routes, cmp.Compare[topo.NodeID], 4, func(rt *Route) topo.NodeID { return rt.Dest },
				func(c *snapshot.Codec, rt *Route) {
					snapshot.Int(c, &rt.Dest)
					snapshot.Int(c, &rt.NextHop)
					snapshot.Int(c, &rt.Metric)
					snapshot.Slice(c, &rt.NextHops, 1, snapshot.Int[topo.LinkID])
				})
		})
	return w.Data()
}

// TestIGPStateIsTheMapEncoding: Domain.State writes, byte for byte, what
// snapshot.Map, Keyed and Overlay wrote over the maps the slices replaced —
// partitioned tables with absent routes and LSDBs that differ between
// islands included — and a domain restored from those bytes writes them
// again.
func TestIGPStateIsTheMapEncoding(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := newSparseNet(rng)
		d := NewDomainOver(n.g, n.members)
		d.Converge()
		for step := 0; step < 4; step++ {
			n.disturb(rng)
			l := n.g.Link(n.links[rng.Intn(len(n.links))])
			d.NotifyLinkChange(l.From, l.To)
		}
		var w snapshot.Writer
		d.State(snapshot.Saver(&w))
		if want := mapEncoding(d); !bytes.Equal(w.Data(), want) {
			t.Fatalf("seed %d: Domain.State wrote %d bytes that are not the map encoding's %d", seed, w.Len(), len(want))
		}
		fresh := NewDomainOver(n.g, n.members)
		if err := snapshot.Load(snapshot.NewReader(w.Data()), fresh.State); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		var again snapshot.Writer
		fresh.State(snapshot.Saver(&again))
		if !bytes.Equal(again.Data(), w.Data()) {
			t.Fatalf("seed %d: a restored domain writes different bytes", seed)
		}
	}
}

// pop147 lays the repository benchmark's pop147 provider out as a bare
// graph: a 7x7 grid of P routers with metrics 1-4 and two PEs on each.
func pop147() *topo.Graph {
	const side = 7
	g := topo.New()
	p := func(i, j int) topo.NodeID { return topo.NodeID(i*side + j) }
	for i := 0; i < side*side; i++ {
		g.AddNode(fmt.Sprintf("P%d", i))
	}
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			if j+1 < side {
				g.AddDuplexLink(p(i, j), p(i, j+1), 1e9, sim.Millisecond, 1+(i*7+j*3)%4)
			}
			if i+1 < side {
				g.AddDuplexLink(p(i, j), p(i+1, j), 1e9, sim.Millisecond, 1+(i*5+j*11)%4)
			}
		}
	}
	for k := 0; k < 2*side*side; k++ {
		g.AddDuplexLink(g.AddNode(fmt.Sprintf("PE%d", k)), topo.NodeID(k/2), 1e9, sim.Millisecond, 1)
	}
	return g
}

// A second Converge allocates what its instances keep — the adjacency and
// its reverse in one slab each, the distance field, an LSA's links, the
// first-hop sets the routes share — and no working memory per instance: the
// heap, the first-hop rows, the install rows and the flood's deliveries are
// the domain's and are warm. It makes about 11 allocations an instance
// here; the map-keyed engine made 1,430.
func TestConvergeAllocatesNoScratchPerInstance(t *testing.T) {
	d := NewDomain(pop147())
	d.Converge()
	perInstance := testing.AllocsPerRun(3, d.Converge) / float64(len(d.Instances))
	t.Logf("%.1f allocations per instance", perInstance)
	if perInstance > 20 {
		t.Fatalf("a second Converge makes %.1f allocations per instance, ceiling 20", perInstance)
	}
}

// BenchmarkConvergePop147 is the from-nothing branch of the IGP at the
// repository benchmark's shape: every build, every node crash or restart,
// and the first fault of a restored run pay it.
func BenchmarkConvergePop147(b *testing.B) {
	g := pop147()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewDomain(g).Converge()
	}
}
