package topo

import (
	"math"
	"testing"

	"mplsvpn/internal/sim"
)

// lineGraph builds A-B-C-D in a line with unit metrics.
func lineGraph() (*Graph, []NodeID) {
	g := New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	c := g.AddNode("C")
	d := g.AddNode("D")
	g.AddDuplexLink(a, b, 10e6, sim.Millisecond, 1)
	g.AddDuplexLink(b, c, 10e6, sim.Millisecond, 1)
	g.AddDuplexLink(c, d, 10e6, sim.Millisecond, 1)
	return g, []NodeID{a, b, c, d}
}

// fishGraph builds the classic TE "fish": src connects to dst via a short
// 2-hop path (via M) and a long 3-hop path (via X, Y).
//
//	    M
//	   / \
//	SRC   DST
//	   \ /
//	  X - Y
func fishGraph() (g *Graph, src, m, x, y, dst NodeID) {
	g = New()
	src = g.AddNode("SRC")
	m = g.AddNode("M")
	x = g.AddNode("X")
	y = g.AddNode("Y")
	dst = g.AddNode("DST")
	g.AddDuplexLink(src, m, 10e6, sim.Millisecond, 1)
	g.AddDuplexLink(m, dst, 10e6, sim.Millisecond, 1)
	g.AddDuplexLink(src, x, 10e6, sim.Millisecond, 1)
	g.AddDuplexLink(x, y, 10e6, sim.Millisecond, 1)
	g.AddDuplexLink(y, dst, 10e6, sim.Millisecond, 1)
	return
}

func TestSPFLine(t *testing.T) {
	g, n := lineGraph()
	r := g.SPF(n[0])
	if r.Dist[n[3]] != 3 {
		t.Fatalf("dist A->D = %d, want 3", r.Dist[n[3]])
	}
	p, ok := r.PathTo(g, n[3])
	if !ok || len(p.Links) != 3 {
		t.Fatalf("path = %v ok=%v", p, ok)
	}
	nodes := p.Nodes(g)
	want := []NodeID{n[0], n[1], n[2], n[3]}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("path nodes = %v, want %v", nodes, want)
		}
	}
	if p.Delay(g) != 3*sim.Millisecond {
		t.Fatalf("path delay = %v", p.Delay(g))
	}
	if p.Cost(g) != 3 {
		t.Fatalf("path cost = %d", p.Cost(g))
	}
}

func TestSPFUnreachable(t *testing.T) {
	g := New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	r := g.SPF(a)
	if r.Reachable(b) {
		t.Fatal("disconnected node reported reachable")
	}
	if r.Dist[b] != math.MaxInt {
		t.Fatalf("dist to unreachable = %d", r.Dist[b])
	}
	if _, ok := r.PathTo(g, b); ok {
		t.Fatal("PathTo returned a path to an unreachable node")
	}
	if !r.Reachable(a) {
		t.Fatal("source must be reachable from itself")
	}
}

func TestSPFPrefersLowMetric(t *testing.T) {
	g, src, m, _, _, dst := func() (*Graph, NodeID, NodeID, NodeID, NodeID, NodeID) {
		return fishGraph()
	}()
	_ = m
	r := g.SPF(src)
	p, _ := r.PathTo(g, dst)
	if len(p.Links) != 2 {
		t.Fatalf("shortest path should be the 2-hop route, got %s", p.String(g))
	}
}

func TestSPFAvoidsDownLink(t *testing.T) {
	g, src, m, _, _, dst := fishGraph()
	g.SetLinkDown(src, m, true)
	r := g.SPF(src)
	p, ok := r.PathTo(g, dst)
	if !ok || len(p.Links) != 3 {
		t.Fatalf("expected 3-hop detour, got %v ok=%v", p.String(g), ok)
	}
	g.SetLinkDown(src, m, false)
	r = g.SPF(src)
	p, _ = r.PathTo(g, dst)
	if len(p.Links) != 2 {
		t.Fatal("link restore not honoured")
	}
}

func TestCSPFBandwidthPruning(t *testing.T) {
	g, src, m, _, _, dst := fishGraph()
	// Reserve 8 Mb/s of the 10 Mb/s short path.
	l, _ := g.FindLink(src, m)
	l.ReservedBw = 8e6
	r := g.CSPF(src, Constraints{MinAvailableBw: 5e6})
	p, ok := r.PathTo(g, dst)
	if !ok || len(p.Links) != 3 {
		t.Fatalf("CSPF should route around the saturated link, got %v", p.String(g))
	}
	// Without the constraint the short path is still chosen.
	r = g.SPF(src)
	p, _ = r.PathTo(g, dst)
	if len(p.Links) != 2 {
		t.Fatal("unconstrained SPF changed unexpectedly")
	}
}

func TestCSPFExcludeNode(t *testing.T) {
	g, src, m, _, _, dst := fishGraph()
	r := g.CSPF(src, Constraints{ExcludeNodes: map[NodeID]bool{m: true}})
	p, ok := r.PathTo(g, dst)
	if !ok || len(p.Links) != 3 {
		t.Fatalf("exclusion not honoured: %v", p.String(g))
	}
}

func TestCSPFExcludeLink(t *testing.T) {
	g, src, m, _, _, dst := fishGraph()
	l, _ := g.FindLink(m, dst)
	r := g.CSPF(src, Constraints{ExcludeLinks: map[LinkID]bool{l.ID: true}})
	p, ok := r.PathTo(g, dst)
	if !ok || len(p.Links) != 3 {
		t.Fatalf("link exclusion not honoured: %v", p.String(g))
	}
}

func TestFindLinkAndReverse(t *testing.T) {
	g, n := lineGraph()
	l, ok := g.FindLink(n[0], n[1])
	if !ok || l.From != n[0] || l.To != n[1] {
		t.Fatalf("FindLink = %+v ok=%v", l, ok)
	}
	r, ok := g.Reverse(l.ID)
	if !ok || r.From != n[1] || r.To != n[0] {
		t.Fatalf("Reverse = %+v ok=%v", r, ok)
	}
	if _, ok := g.FindLink(n[0], n[3]); ok {
		t.Fatal("FindLink invented a link")
	}
}

func TestNodeByName(t *testing.T) {
	g, _ := lineGraph()
	id, ok := g.NodeByName("C")
	if !ok || g.Name(id) != "C" {
		t.Fatalf("NodeByName failed: %v %v", id, ok)
	}
	if _, ok := g.NodeByName("Z"); ok {
		t.Fatal("found nonexistent node")
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	g := New()
	g.AddNode("A")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate name")
		}
	}()
	g.AddNode("A")
}

func TestPathToSelf(t *testing.T) {
	g, n := lineGraph()
	r := g.SPF(n[0])
	p, ok := r.PathTo(g, n[0])
	if !ok || len(p.Links) != 0 {
		t.Fatalf("path to self = %v ok=%v", p, ok)
	}
}

func TestNextHop(t *testing.T) {
	g, n := lineGraph()
	r := g.SPF(n[0])
	lid, ok := r.NextHop(g, n[3])
	if !ok || g.Link(lid).To != n[1] {
		t.Fatalf("next hop to D should be via B")
	}
	if _, ok := r.NextHop(g, n[0]); ok {
		t.Fatal("next hop to self should not exist")
	}
}

func TestSPFDeterministicTieBreak(t *testing.T) {
	// Two equal-cost paths; the chosen one must be stable across runs.
	g := New()
	a := g.AddNode("A")
	b1 := g.AddNode("B1")
	b2 := g.AddNode("B2")
	c := g.AddNode("C")
	g.AddDuplexLink(a, b1, 10e6, sim.Millisecond, 1)
	g.AddDuplexLink(a, b2, 10e6, sim.Millisecond, 1)
	g.AddDuplexLink(b1, c, 10e6, sim.Millisecond, 1)
	g.AddDuplexLink(b2, c, 10e6, sim.Millisecond, 1)
	first, _ := g.SPF(a).PathTo(g, c)
	for i := 0; i < 10; i++ {
		p, _ := g.SPF(a).PathTo(g, c)
		if p.String(g) != first.String(g) {
			t.Fatal("equal-cost tie-break is not deterministic")
		}
	}
}
