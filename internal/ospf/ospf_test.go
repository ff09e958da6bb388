package ospf

import (
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
)

// square builds A-B-C-D in a ring with one diagonal shortcut A-C of metric 1.
func square() (*topo.Graph, []topo.NodeID) {
	g := topo.New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	c := g.AddNode("C")
	d := g.AddNode("D")
	g.AddDuplexLink(a, b, 10e6, sim.Millisecond, 1)
	g.AddDuplexLink(b, c, 10e6, sim.Millisecond, 1)
	g.AddDuplexLink(c, d, 10e6, sim.Millisecond, 1)
	g.AddDuplexLink(d, a, 10e6, sim.Millisecond, 1)
	return g, []topo.NodeID{a, b, c, d}
}

func TestConvergenceFullLSDB(t *testing.T) {
	g, _ := square()
	d := NewDomain(g)
	d.Converge()
	for n, in := range d.Instances {
		if in.LSDBSize() != 4 {
			t.Fatalf("router %v LSDB has %d LSAs, want 4", n, in.LSDBSize())
		}
	}
	if d.MessagesSent == 0 || d.FloodRounds == 0 {
		t.Fatal("convergence happened without any flooding")
	}
}

func TestRoutesMatchGlobalSPF(t *testing.T) {
	g, nodes := square()
	d := NewDomain(g)
	d.Converge()
	// Every router's IGP metric to every destination must equal the global
	// Dijkstra distance: the distributed computation agrees with the oracle.
	for _, src := range nodes {
		oracle := g.SPF(src)
		in := d.Instance(src)
		for _, dst := range nodes {
			if dst == src {
				continue
			}
			r, ok := in.RouteTo(dst)
			if !ok {
				t.Fatalf("%v has no route to %v", src, dst)
			}
			if r.Metric != oracle.Dist[dst] {
				t.Fatalf("%v->%v metric %d, oracle %d", src, dst, r.Metric, oracle.Dist[dst])
			}
			// Next hop must leave src.
			if g.Link(r.NextHop).From != src {
				t.Fatalf("next-hop link does not originate at %v", src)
			}
		}
	}
}

func TestLinkFailureReroute(t *testing.T) {
	g, n := square()
	d := NewDomain(g)
	d.Converge()
	a, b, c := n[0], n[1], n[2]

	// Before failure: A reaches C in 2 (via B or D).
	r, _ := d.Instance(a).RouteTo(c)
	if r.Metric != 2 {
		t.Fatalf("pre-failure metric = %d", r.Metric)
	}

	// Fail A-B; A must still reach B the long way (A-D-C-B = 3).
	g.SetLinkDown(a, b, true)
	d.NotifyLinkChange(a, b)
	r, ok := d.Instance(a).RouteTo(b)
	if !ok || r.Metric != 3 {
		t.Fatalf("post-failure route to B = %+v ok=%v, want metric 3", r, ok)
	}
	if g.Link(r.NextHop).To != n[3] {
		t.Fatalf("post-failure next hop should be D")
	}

	// Recovery restores the direct route.
	g.SetLinkDown(a, b, false)
	d.NotifyLinkChange(a, b)
	r, _ = d.Instance(a).RouteTo(b)
	if r.Metric != 1 {
		t.Fatalf("post-recovery metric = %d", r.Metric)
	}
}

func TestPartitionedNetwork(t *testing.T) {
	g := topo.New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	c := g.AddNode("C")
	d := g.AddNode("D")
	g.AddDuplexLink(a, b, 10e6, sim.Millisecond, 1)
	g.AddDuplexLink(c, d, 10e6, sim.Millisecond, 1)
	dom := NewDomain(g)
	dom.Converge()
	if _, ok := dom.Instance(a).RouteTo(c); ok {
		t.Fatal("route across partition")
	}
	if _, ok := dom.Instance(a).RouteTo(b); !ok {
		t.Fatal("no route within partition")
	}
	// LSDBs do not leak across the partition.
	if dom.Instance(a).LSDBSize() != 2 {
		t.Fatalf("A's LSDB = %d, want 2", dom.Instance(a).LSDBSize())
	}
}

func TestLoopbacksUnique(t *testing.T) {
	g, nodes := square()
	seen := map[addr.IPv4]bool{}
	for _, n := range nodes {
		lb := Loopback(n)
		if seen[lb] {
			t.Fatalf("duplicate loopback %v", lb)
		}
		seen[lb] = true
	}
	_ = g
}

func TestLoopbackTable(t *testing.T) {
	g, n := square()
	d := NewDomain(g)
	d.Converge()
	tbl := d.LoopbackTable(n[0])
	if tbl.Len() != 3 {
		t.Fatalf("loopback table has %d routes, want 3", tbl.Len())
	}
	lid, ok := tbl.Lookup(Loopback(n[1]))
	if !ok || g.Link(lid).From != n[0] || g.Link(lid).To != n[1] {
		t.Fatalf("loopback route to B wrong: %v ok=%v", lid, ok)
	}
}

func TestRoutesSorted(t *testing.T) {
	g, n := square()
	d := NewDomain(g)
	d.Converge()
	rs := d.Instance(n[0]).Routes()
	if len(rs) != 3 {
		t.Fatalf("Routes len = %d", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Dest <= rs[i-1].Dest {
			t.Fatal("routes not sorted")
		}
	}
}

func TestMetricsRespected(t *testing.T) {
	// A -1- B -1- C and a direct A-C with metric 5: SPF must go via B.
	g := topo.New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	c := g.AddNode("C")
	g.AddDuplexLink(a, b, 10e6, sim.Millisecond, 1)
	g.AddDuplexLink(b, c, 10e6, sim.Millisecond, 1)
	g.AddDuplexLink(a, c, 10e6, sim.Millisecond, 5)
	d := NewDomain(g)
	d.Converge()
	r, _ := d.Instance(a).RouteTo(c)
	if r.Metric != 2 || g.Link(r.NextHop).To != b {
		t.Fatalf("route to C = %+v, want via B at metric 2", r)
	}
}
