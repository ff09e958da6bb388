package ospf

import (
	"fmt"
	"testing"
	"testing/quick"

	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
)

// randomGraph builds a connected random topology from fuzz input: a
// spanning chain plus extra random edges with random metrics.
func randomGraph(nodes int, extras []uint16) *topo.Graph {
	g := topo.New()
	ids := make([]topo.NodeID, nodes)
	for i := 0; i < nodes; i++ {
		ids[i] = g.AddNode(fmt.Sprintf("n%d", i))
	}
	for i := 1; i < nodes; i++ {
		g.AddDuplexLink(ids[i-1], ids[i], 10e6, sim.Millisecond, 1+i%3)
	}
	for _, e := range extras {
		a := int(e) % nodes
		b := int(e>>4) % nodes
		if a == b {
			continue
		}
		m := 1 + int(e>>8)%5
		g.AddDuplexLink(ids[a], ids[b], 10e6, sim.Millisecond, m)
	}
	return g
}

// Property: on any random connected graph, every router's distributed SPF
// metric equals the global Dijkstra oracle, and every next hop actually
// lies on a shortest path.
func TestDistributedSPFMatchesOracleProperty(t *testing.T) {
	f := func(nRaw uint8, extras []uint16) bool {
		nodes := 3 + int(nRaw%8)
		if len(extras) > 12 {
			extras = extras[:12]
		}
		g := randomGraph(nodes, extras)
		d := NewDomain(g)
		d.Converge()
		for src := topo.NodeID(0); int(src) < nodes; src++ {
			oracle := g.SPF(src)
			in := d.Instance(src)
			for dst := topo.NodeID(0); int(dst) < nodes; dst++ {
				if dst == src {
					continue
				}
				r, ok := in.RouteTo(dst)
				if !ok {
					return false // connected graph: everything reachable
				}
				if r.Metric != oracle.Dist[dst] {
					return false
				}
				// Next hop is on a shortest path: metric via that neighbor
				// must equal the total.
				l := g.Link(r.NextHop)
				if l.From != src {
					return false
				}
				nb := l.To
				rest := 0
				if nb != dst {
					nbRoute, ok := d.Instance(nb).RouteTo(dst)
					if !ok {
						return false
					}
					rest = nbRoute.Metric
				}
				if l.Metric+rest != r.Metric {
					return false
				}
				// Every ECMP member must also be optimal.
				for _, lid := range r.NextHops {
					ll := g.Link(lid)
					nrest := 0
					if ll.To != dst {
						nr, ok := d.Instance(ll.To).RouteTo(dst)
						if !ok {
							return false
						}
						nrest = nr.Metric
					}
					if ll.Metric+nrest != r.Metric {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any single link failure on a ring (still connected),
// reconvergence restores full reachability with oracle-equal metrics.
func TestReconvergenceMatchesOracleProperty(t *testing.T) {
	f := func(nRaw, failRaw uint8) bool {
		nodes := 4 + int(nRaw%5)
		g := topo.New()
		ids := make([]topo.NodeID, nodes)
		for i := range ids {
			ids[i] = g.AddNode(fmt.Sprintf("r%d", i))
		}
		for i := range ids {
			g.AddDuplexLink(ids[i], ids[(i+1)%nodes], 10e6, sim.Millisecond, 1)
		}
		d := NewDomain(g)
		d.Converge()

		fi := int(failRaw) % nodes
		a, b := ids[fi], ids[(fi+1)%nodes]
		g.SetLinkDown(a, b, true)
		d.NotifyLinkChange(a, b)

		for src := topo.NodeID(0); int(src) < nodes; src++ {
			oracle := g.SPF(src)
			for dst := topo.NodeID(0); int(dst) < nodes; dst++ {
				if dst == src {
					continue
				}
				r, ok := d.Instance(src).RouteTo(dst)
				if !ok || r.Metric != oracle.Dist[dst] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
