package ldp

import (
	"reflect"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/mpls"
	"mplsvpn/internal/ospf"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
)

// backbone builds PE1 - P1 - P2 - PE2 in a line plus a detour P1 - P3 - P2.
func backbone() (*topo.Graph, *ospf.Domain, map[string]topo.NodeID) {
	g := topo.New()
	names := []string{"PE1", "P1", "P2", "PE2", "P3"}
	ids := map[string]topo.NodeID{}
	for _, n := range names {
		ids[n] = g.AddNode(n)
	}
	g.AddDuplexLink(ids["PE1"], ids["P1"], 10e6, sim.Millisecond, 1)
	g.AddDuplexLink(ids["P1"], ids["P2"], 10e6, sim.Millisecond, 1)
	g.AddDuplexLink(ids["P2"], ids["PE2"], 10e6, sim.Millisecond, 1)
	g.AddDuplexLink(ids["P1"], ids["P3"], 10e6, sim.Millisecond, 2)
	g.AddDuplexLink(ids["P3"], ids["P2"], 10e6, sim.Millisecond, 2)
	d := ospf.NewDomain(g)
	d.Converge()
	return g, d, ids
}

func TestLSPsToAllLoopbacks(t *testing.T) {
	g, d, ids := backbone()
	p := New(g, d)
	p.Converge()
	// Every ordered pair of distinct routers has a working LSP.
	for _, a := range ids {
		for _, b := range ids {
			if a == b {
				continue
			}
			nodes, err := p.TraceLSP(a, b)
			if err != nil {
				t.Fatalf("LSP %v->%v: %v (path %v)", g.Name(a), g.Name(b), err, nodes)
			}
			if nodes[0] != a || nodes[len(nodes)-1] != b {
				t.Fatalf("LSP endpoints wrong: %v", nodes)
			}
		}
	}
}

func TestLSPFollowsIGPShortestPath(t *testing.T) {
	g, d, ids := backbone()
	p := New(g, d)
	p.Converge()
	nodes, err := p.TraceLSP(ids["PE1"], ids["PE2"])
	if err != nil {
		t.Fatal(err)
	}
	// Shortest path is PE1-P1-P2-PE2 (metric 3), not via P3 (metric 5).
	want := []topo.NodeID{ids["PE1"], ids["P1"], ids["P2"], ids["PE2"]}
	if len(nodes) != len(want) {
		t.Fatalf("LSP path %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("LSP path %v, want %v", nodes, want)
		}
	}
}

func TestPHPSignalled(t *testing.T) {
	g, d, ids := backbone()
	p := New(g, d)
	p.Converge()
	// P2 is the penultimate hop toward PE2: its ILM entry for the PE2 FEC
	// must swap to implicit null.
	fec := addr.HostPrefix(ospf.Loopback(ids["PE2"]))
	label, ok := p.Speaker(ids["P2"]).LocalBinding(fec)
	if !ok {
		t.Fatal("P2 has no local binding for PE2's loopback")
	}
	e, ok := p.Speaker(ids["P2"]).LFIB.LookupILM(label)
	if !ok {
		t.Fatal("P2 has no ILM for its own binding")
	}
	if e.OutLabel != packet.LabelImplicitNull {
		t.Fatalf("penultimate hop swaps to %d, want implicit null", e.OutLabel)
	}
	_ = g
}

func TestTransportEntry(t *testing.T) {
	g, d, ids := backbone()
	p := New(g, d)
	p.Converge()
	e, ok := p.TransportEntry(ids["PE1"], ids["PE2"])
	if !ok || e.Op != mpls.OpPush {
		t.Fatalf("transport entry = %+v ok=%v", e, ok)
	}
	if g.Link(e.OutLink).To != ids["P1"] {
		t.Fatal("transport LSP does not start toward P1")
	}
	if _, ok := p.TransportEntry(ids["PE1"], ids["PE1"]); ok {
		t.Fatal("transport entry to self should not exist")
	}
}

func TestLabelsAreLocallyUnique(t *testing.T) {
	g, d, _ := backbone()
	p := New(g, d)
	p.Converge()
	for n, sp := range p.Speakers {
		seen := map[packet.Label]bool{}
		for fec, l := range sp.local {
			if l == packet.LabelImplicitNull || l == noLabel {
				continue
			}
			if seen[l] {
				t.Fatalf("router %v advertised label %d for two FECs (%v)", n, l, fec)
			}
			seen[l] = true
		}
	}
	_ = g
}

func TestStateScalesLinearly(t *testing.T) {
	// In an N-router line, each router holds at most N-1 ILM entries:
	// per-node state is O(N), not O(N^2) — the §2.1 contrast with
	// per-pair virtual circuits.
	for _, n := range []int{4, 8, 16} {
		g := topo.New()
		var prev topo.NodeID = -1
		for i := 0; i < n; i++ {
			id := g.AddNode(nodeName(i))
			if prev >= 0 {
				g.AddDuplexLink(prev, id, 10e6, sim.Millisecond, 1)
			}
			prev = id
		}
		d := ospf.NewDomain(g)
		d.Converge()
		p := New(g, d)
		p.Converge()
		for node, sp := range p.Speakers {
			if sp.LFIB.ILMSize() > n-1 {
				t.Fatalf("n=%d: router %v has %d ILM entries", n, node, sp.LFIB.ILMSize())
			}
		}
		if p.TotalILMEntries() == 0 {
			t.Fatal("no ILM entries at all")
		}
	}
}

func nodeName(i int) string {
	return string(rune('A'+i%26)) + string(rune('0'+i/26))
}

// holes reads the members of a label table's arena that no set covers.
// The arena is the mpls package's own, so it is read by reflection.
func holes(table any) int64 {
	return reflect.ValueOf(table).Elem().FieldByName("sets").FieldByName("holes").Int()
}

// TestConvergeLeavesNoArenaHoles: Converge makes each FEC's ILM and FTN
// sets at the width of the IGP's equal-cost next hops when it installs the
// first member, so no set outgrows its room and moves: after a Converge
// over a grid where many FECs have two next hops, no router's arena holds a
// hole.
func TestConvergeLeavesNoArenaHoles(t *testing.T) {
	g := pop147()
	d := ospf.NewDomain(g)
	d.Converge()
	p := New(g, d)
	p.Converge()
	ecmp := 0
	for _, sp := range p.Speakers {
		for f := range p.Speakers {
			if es, ok := sp.LFIB.LookupILMAll(sp.local[f]); ok && len(es) > 1 {
				ecmp++
			}
		}
		if h, k := holes(sp.LFIB), holes(sp.FTN); h != 0 || k != 0 {
			t.Fatalf("router %d: %d holes in the LFIB's arena and %d in the FTN's", sp.Node, h, k)
		}
	}
	if ecmp == 0 {
		t.Fatal("no FEC has two next hops anywhere: the grid tests nothing")
	}
	t.Logf("%d ECMP sets", ecmp)
}
