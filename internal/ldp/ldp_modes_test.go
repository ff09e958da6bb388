package ldp

import (
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/mpls"
	"mplsvpn/internal/ospf"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/topo"
)

func TestIndependentModeConvergesToWorkingLSPs(t *testing.T) {
	g, d, ids := backbone()
	p := New(g, d)
	p.Mode = Independent
	p.Converge()
	for _, a := range ids {
		for _, b := range ids {
			if a == b {
				continue
			}
			if _, err := p.TraceLSP(a, b); err != nil {
				t.Fatalf("independent-mode LSP %v->%v broken: %v", g.Name(a), g.Name(b), err)
			}
		}
	}
}

func TestIndependentModeFewerRounds(t *testing.T) {
	// A long line maximizes ordered mode's propagation waves.
	build := func() (*topo.Graph, *ospf.Domain) {
		g := topo.New()
		var prev topo.NodeID = -1
		for i := 0; i < 10; i++ {
			id := g.AddNode(nodeName(i))
			if prev >= 0 {
				g.AddDuplexLink(prev, id, 10e6, 1e6, 1)
			}
			prev = id
		}
		d := ospf.NewDomain(g)
		d.Converge()
		return g, d
	}
	g1, d1 := build()
	ordered := New(g1, d1)
	ordered.Converge()
	g2, d2 := build()
	indep := New(g2, d2)
	indep.Mode = Independent
	indep.Converge()

	if indep.Rounds >= ordered.Rounds {
		t.Fatalf("independent rounds %d >= ordered %d", indep.Rounds, ordered.Rounds)
	}
	// Both still give working end-to-end LSPs.
	if _, err := indep.TraceLSP(0, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := ordered.TraceLSP(0, 9); err != nil {
		t.Fatal(err)
	}
}

func TestDisablePHPUsesRealEgressLabel(t *testing.T) {
	g, d, ids := backbone()
	p := New(g, d)
	p.DisablePHP = true
	p.Converge()

	// No speaker ever advertises implicit null.
	for n, sp := range p.Speakers {
		for fec, l := range sp.local {
			if l == packet.LabelImplicitNull {
				t.Fatalf("router %v advertised implicit null for %v despite DisablePHP", n, fec)
			}
		}
	}
	// LSPs still work end to end (TraceLSP walks the ILM chain; with UHP
	// the last hop's pop entry is OutLink -1, handled as arrival).
	nodes, err := traceUHP(p, g, ids["PE1"], ids["PE2"])
	if err != nil {
		t.Fatalf("%v (path %v)", err, nodes)
	}
	if nodes[len(nodes)-1] != ids["PE2"] {
		t.Fatalf("UHP LSP ends at %v", nodes)
	}
}

// traceUHP follows a no-PHP LSP: the final hop pops at the egress itself.
func traceUHP(p *Protocol, g *topo.Graph, ingress, egress topo.NodeID) ([]topo.NodeID, error) {
	nodes := []topo.NodeID{ingress}
	entry, ok := p.TransportEntry(ingress, egress)
	if !ok {
		return nodes, errNoEntry
	}
	label := entry.OutLabel
	at := g.Link(entry.OutLink).To
	nodes = append(nodes, at)
	for hop := 0; hop < g.NumNodes()+2; hop++ {
		e, ok := p.Speaker(at).LFIB.LookupILM(label)
		if !ok {
			return nodes, errBrokenChain
		}
		if e.OutLink < 0 {
			return nodes, nil // popped at the ultimate hop
		}
		label = e.OutLabel
		at = g.Link(e.OutLink).To
		nodes = append(nodes, at)
	}
	return nodes, errLoop
}

var (
	errNoEntry     = &ldpErr{"no FTN entry"}
	errBrokenChain = &ldpErr{"broken ILM chain"}
	errLoop        = &ldpErr{"loop"}
)

type ldpErr struct{ s string }

func (e *ldpErr) Error() string { return e.s }

func TestUseTablesSharesLabelSpace(t *testing.T) {
	g, d, ids := backbone()
	p := New(g, d)
	alloc := mpls.NewAllocator()
	lfib := mpls.NewLFIB()
	ftn := mpls.NewFTN()
	p.UseTables(ids["P1"], alloc, lfib, ftn)
	p.Converge()
	// The injected tables received P1's state.
	if lfib.ILMSize() == 0 || ftn.Size() == 0 || alloc.Allocated() == 0 {
		t.Fatalf("shared tables unused: ilm=%d ftn=%d alloc=%d",
			lfib.ILMSize(), ftn.Size(), alloc.Allocated())
	}
	if p.Speaker(ids["P1"]).LFIB != lfib {
		t.Fatal("speaker not using injected LFIB")
	}
}

func TestTraceLSPBrokenChain(t *testing.T) {
	g, d, ids := backbone()
	p := New(g, d)
	p.Converge()
	// Sabotage: unbind P1's ILM entries to break every LSP through it.
	sp := p.Speaker(ids["P1"])
	fec := addr.HostPrefix(ospf.Loopback(ids["PE2"]))
	label, _ := sp.LocalBinding(fec)
	sp.LFIB.UnbindILM(label)
	if _, err := p.TraceLSP(ids["PE1"], ids["PE2"]); err == nil {
		t.Fatal("trace succeeded over a broken chain")
	}
}
