package mpls

import (
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/topo"
)

func labeledPkt(label packet.Label, ttl uint8) *packet.Packet {
	return &packet.Packet{
		IP:   packet.IPv4Header{TTL: 64},
		MPLS: packet.StackOf(packet.LabelStackEntry{Label: label, EXP: 5, TTL: ttl}),
	}
}

func TestAllocator(t *testing.T) {
	a := NewAllocator()
	l1 := a.Alloc()
	l2 := a.Alloc()
	if l1 < packet.MinDynamicLabel || l1 == l2 {
		t.Fatalf("bad labels %d %d", l1, l2)
	}
	if a.Allocated() != 2 {
		t.Fatalf("Allocated = %d", a.Allocated())
	}
}

func TestSwap(t *testing.T) {
	f := NewLFIB()
	f.BindILM(100, NHLFE{Op: OpSwap, OutLabel: 200, OutLink: 7})
	p := labeledPkt(100, 10)
	out, labeled, drop := f.ProcessLabeled(p)
	if drop != packet.DropNone || !labeled || out != 7 {
		t.Fatalf("swap: out=%v labeled=%v drop=%v", out, labeled, drop)
	}
	top := p.MPLS.Top()
	if top.Label != 200 || top.TTL != 9 || top.EXP != 5 {
		t.Fatalf("swapped entry = %+v", top)
	}
	if f.Swapped != 1 {
		t.Fatalf("Swapped = %d", f.Swapped)
	}
}

func TestPHP(t *testing.T) {
	f := NewLFIB()
	f.BindILM(100, NHLFE{Op: OpSwap, OutLabel: packet.LabelImplicitNull, OutLink: 3})
	p := labeledPkt(100, 10)
	out, labeled, drop := f.ProcessLabeled(p)
	if drop != packet.DropNone || labeled || out != 3 {
		t.Fatalf("php: out=%v labeled=%v drop=%v", out, labeled, drop)
	}
	if p.MPLS.Depth() != 0 {
		t.Fatal("stack not popped")
	}
	if p.IP.TTL != 9 {
		t.Fatalf("TTL not propagated to IP: %d", p.IP.TTL)
	}
}

func TestPopInnerLabelRemains(t *testing.T) {
	f := NewLFIB()
	f.BindILM(100, NHLFE{Op: OpPop, OutLink: -1})
	p := &packet.Packet{
		IP: packet.IPv4Header{TTL: 64},
		MPLS: packet.StackOf(
			packet.LabelStackEntry{Label: 100, EXP: 5, TTL: 10},
			packet.LabelStackEntry{Label: 500, EXP: 5, TTL: 10},
		),
	}
	out, labeled, drop := f.ProcessLabeled(p)
	if drop != packet.DropNone || !labeled || out != -1 {
		t.Fatalf("pop: out=%v labeled=%v drop=%v", out, labeled, drop)
	}
	if p.MPLS.Depth() != 1 || p.MPLS.Top().Label != 500 {
		t.Fatalf("inner label wrong: %v", p.MPLS)
	}
	if p.MPLS.Top().TTL != 9 {
		t.Fatalf("TTL not carried to inner label: %d", p.MPLS.Top().TTL)
	}
}

func TestNoBindingDrops(t *testing.T) {
	f := NewLFIB()
	p := labeledPkt(999, 10)
	_, _, drop := f.ProcessLabeled(p)
	if drop != packet.DropNoLabelBinding {
		t.Fatalf("drop = %v, want no_label_binding", drop)
	}
}

func TestTTLExpiry(t *testing.T) {
	f := NewLFIB()
	f.BindILM(100, NHLFE{Op: OpSwap, OutLabel: 200, OutLink: 1})
	p := labeledPkt(100, 1)
	if _, _, drop := f.ProcessLabeled(p); drop != packet.DropTTLExpired {
		t.Fatalf("TTL 1 packet: drop = %v", drop)
	}
}

func TestPushSeedsTTLAndEXP(t *testing.T) {
	f := NewLFIB()
	p := &packet.Packet{IP: packet.IPv4Header{TTL: 33}}
	f.Push(p, 777, 4)
	top := p.MPLS.Top()
	if top.Label != 777 || top.TTL != 33 || top.EXP != 4 {
		t.Fatalf("pushed entry = %+v", top)
	}
	// Pushing a second level copies the label TTL, not the IP TTL.
	p.MPLS.SetTopTTL(20)
	f.Push(p, 888, 4)
	if p.MPLS.Top().TTL != 20 {
		t.Fatalf("second push TTL = %d, want 20", p.MPLS.Top().TTL)
	}
	if f.Pushed != 2 {
		t.Fatalf("Pushed = %d", f.Pushed)
	}
}

func TestFTN(t *testing.T) {
	f := NewFTN()
	f.Bind(addr.MustParsePrefix("10.0.0.0/8"), NHLFE{Op: OpPush, OutLabel: 100, OutLink: 2})
	f.Bind(addr.MustParsePrefix("10.1.0.0/16"), NHLFE{Op: OpPush, OutLabel: 200, OutLink: 3})
	e, ok := f.Lookup(addr.MustParseIPv4("10.1.5.5"))
	if !ok || e.OutLabel != 200 {
		t.Fatalf("LPM in FTN failed: %+v %v", e, ok)
	}
	e, ok = f.Lookup(addr.MustParseIPv4("10.2.0.1"))
	if !ok || e.OutLabel != 100 {
		t.Fatalf("fallback FEC failed: %+v %v", e, ok)
	}
	if _, ok := f.Lookup(addr.MustParseIPv4("11.0.0.1")); ok {
		t.Fatal("FTN matched uncovered address")
	}
	if f.Size() != 2 {
		t.Fatalf("Size = %d", f.Size())
	}
}

// A two-LSR pipeline: ingress pushes, transit swaps with PHP, egress gets
// plain IP. Verifies label continuity end to end.
func TestLSPPipeline(t *testing.T) {
	ingress, transit := NewLFIB(), NewLFIB()
	ftn := NewFTN()
	ftn.Bind(addr.MustParsePrefix("10.9.0.0/16"), NHLFE{Op: OpPush, OutLabel: 100, OutLink: 1})
	transit.BindILM(100, NHLFE{Op: OpSwap, OutLabel: packet.LabelImplicitNull, OutLink: 2})

	p := &packet.Packet{IP: packet.IPv4Header{
		TTL: 64, Dst: addr.MustParseIPv4("10.9.1.1"),
	}}
	e, ok := ftn.Lookup(p.IP.Dst)
	if !ok {
		t.Fatal("ingress FTN miss")
	}
	ingress.Push(p, e.OutLabel, 5)
	if p.MPLS.Depth() != 1 {
		t.Fatal("not labelled after ingress")
	}
	out, labeled, drop := transit.ProcessLabeled(p)
	if drop != packet.DropNone || labeled || out != 2 {
		t.Fatalf("transit: %v %v %v", out, labeled, drop)
	}
	if p.MPLS.Depth() != 0 || p.IP.TTL != 63 {
		t.Fatalf("egress state: depth=%d ttl=%d", p.MPLS.Depth(), p.IP.TTL)
	}
}

func TestOpStrings(t *testing.T) {
	if OpPush.String() != "push" || OpSwap.String() != "swap" || OpPop.String() != "pop" {
		t.Fatal("op names wrong")
	}
}

func TestILMMultipath(t *testing.T) {
	f := NewLFIB()
	f.AddILM(100, NHLFE{Op: OpSwap, OutLabel: 200, OutLink: 1})
	f.AddILM(100, NHLFE{Op: OpSwap, OutLabel: 300, OutLink: 2})
	f.AddILM(100, NHLFE{Op: OpSwap, OutLabel: 999, OutLink: 2}) // dup out-link ignored
	es, ok := f.LookupILMAll(100)
	if !ok || len(es) != 2 {
		t.Fatalf("ILM set = %v ok=%v", es, ok)
	}
	if e, ok := f.LookupILM(100); !ok || e.OutLabel != 200 {
		t.Fatalf("first entry = %+v", e)
	}
	if f.ILMSize() != 1 {
		t.Fatalf("ILMSize = %d", f.ILMSize())
	}

	// Distinct flows hash across both members; one flow is stable.
	var outs [301]int // by outgoing label
	for port := 0; port < 64; port++ {
		p := &packet.Packet{
			IP:   packet.IPv4Header{TTL: 64, Src: 1, Dst: 2},
			L4:   packet.L4Header{SrcPort: uint16(port), DstPort: 80},
			MPLS: packet.StackOf(packet.LabelStackEntry{Label: 100, TTL: 10}),
		}
		if _, _, drop := f.ProcessLabeled(p); drop != packet.DropNone {
			t.Fatal(drop)
		}
		outs[p.MPLS.Top().Label]++
	}
	if outs[200] == 0 || outs[300] == 0 {
		t.Fatalf("hash did not spread: %v", outs)
	}
	// Same flow twice -> same member.
	mk := func() *packet.Packet {
		return &packet.Packet{
			IP:   packet.IPv4Header{TTL: 64, Src: 9, Dst: 8},
			L4:   packet.L4Header{SrcPort: 1234, DstPort: 80},
			MPLS: packet.StackOf(packet.LabelStackEntry{Label: 100, TTL: 10}),
		}
	}
	a, b := mk(), mk()
	f.ProcessLabeled(a)
	f.ProcessLabeled(b)
	if a.MPLS.Top().Label != b.MPLS.Top().Label {
		t.Fatal("flow affinity broken")
	}
}

func TestUnbindILM(t *testing.T) {
	f := NewLFIB()
	f.BindILM(100, NHLFE{Op: OpSwap, OutLabel: 200, OutLink: 1})
	f.UnbindILM(100)
	if _, ok := f.LookupILM(100); ok {
		t.Fatal("label survived unbind")
	}
	if _, ok := f.LookupILMAll(100); ok {
		t.Fatal("LookupILMAll found unbound label")
	}
}

func TestFTNMultipath(t *testing.T) {
	f := NewFTN()
	fec := addr.MustParsePrefix("10.0.0.0/8")
	f.AddBind(fec, NHLFE{Op: OpPush, OutLabel: 1, OutLink: 1})
	f.AddBind(fec, NHLFE{Op: OpPush, OutLabel: 2, OutLink: 2})
	f.AddBind(fec, NHLFE{Op: OpPush, OutLabel: 3, OutLink: 2}) // dup ignored
	e1, _ := f.LookupHashed(addr.MustParseIPv4("10.1.1.1"), 0)
	e2, _ := f.LookupHashed(addr.MustParseIPv4("10.1.1.1"), 1)
	if e1.OutLink == e2.OutLink {
		t.Fatal("hash selector not spreading")
	}
	if _, ok := f.LookupHashed(addr.MustParseIPv4("11.0.0.1"), 0); ok {
		t.Fatal("matched uncovered address")
	}
	// Bind replaces the whole set.
	f.Bind(fec, NHLFE{Op: OpPush, OutLabel: 9, OutLink: 9})
	e, _ := f.LookupHashed(addr.MustParseIPv4("10.1.1.1"), 12345)
	if e.OutLabel != 9 {
		t.Fatal("Bind did not replace ECMP set")
	}
}

// The order of an equal-cost set is forwarding state (the flow hash indexes
// it), so it must not depend on the order the members arrived in: AddILM and
// AddBind keep ascending OutLink order, and SetILM/BindSet install a whole
// set as given.
func TestECMPSetOrderIsCanonical(t *testing.T) {
	member := func(op Op, link topo.LinkID) NHLFE {
		return NHLFE{Op: op, OutLabel: packet.Label(100 + link), OutLink: link}
	}
	fec := addr.MustParsePrefix("10.255.0.7/32")
	ip := addr.MustParseIPv4("10.255.0.7")
	for _, arrival := range [][]topo.LinkID{{2, 5, 9}, {9, 5, 2}, {5, 9, 2, 5}} {
		l, f := NewLFIB(), NewFTN()
		for _, link := range arrival {
			l.AddILM(40, member(OpSwap, link))
			f.AddBind(fec, member(OpPush, link))
		}
		ilm, _ := l.LookupILMAll(40)
		ftn, _ := f.LookupAll(ip)
		for i, want := range []topo.LinkID{2, 5, 9} {
			if len(ilm) != 3 || len(ftn) != 3 || ilm[i].OutLink != want || ftn[i].OutLink != want {
				t.Fatalf("arrival %v: ILM %v FTN %v, want out-links 2 5 9", arrival, ilm, ftn)
			}
		}
	}

	l, f := NewLFIB(), NewFTN()
	l.AddILM(40, member(OpSwap, 2))
	f.AddBind(fec, member(OpPush, 2))
	l.SetILM(40, []NHLFE{member(OpSwap, 5), member(OpSwap, 9)})
	f.BindSet(fec, []NHLFE{member(OpPush, 5), member(OpPush, 9)})
	ilm, _ := l.LookupILMAll(40)
	ftn, _ := f.LookupAll(ip)
	if len(ilm) != 2 || ilm[0].OutLink != 5 || ilm[1].OutLink != 9 || l.ILMSize() != 1 {
		t.Fatalf("SetILM left %v", ilm)
	}
	if len(ftn) != 2 || ftn[0].OutLink != 5 || ftn[1].OutLink != 9 || f.Size() != 1 {
		t.Fatalf("BindSet left %v", ftn)
	}
	if e, _ := f.LookupHashed(ip, 3); e.OutLink != 9 {
		t.Fatalf("LookupHashed(3) picked link %d, want member 3 %% 2 = link 9", e.OutLink)
	}
}

func TestAllocatorExhaustionPanics(t *testing.T) {
	a := &Allocator{next: packet.MaxLabel + 1}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on label exhaustion")
		}
	}()
	a.Alloc()
}

func TestDetourVia(t *testing.T) {
	f := NewLFIB()
	f.BindILM(100, NHLFE{Op: OpSwap, OutLabel: 200, OutLink: 5})
	f.BindILM(101, NHLFE{Op: OpSwap, OutLabel: packet.LabelImplicitNull, OutLink: 5})
	f.BindILM(102, NHLFE{Op: OpSwap, OutLabel: 300, OutLink: 9}) // different link: untouched

	if n := f.DetourVia(5, 777, 8); n != 2 {
		t.Fatalf("detoured %d entries, want 2", n)
	}

	// Swap entry: normal swap, then bypass push, out via bypass link.
	p := labeledPkt(100, 10)
	out, labeled, drop := f.ProcessLabeled(p)
	if drop != packet.DropNone || !labeled || out != 8 {
		t.Fatalf("detoured swap: out=%v labeled=%v drop=%v", out, labeled, drop)
	}
	if p.MPLS.Depth() != 2 || p.MPLS.At(0).Label != 777 || p.MPLS.At(1).Label != 200 {
		t.Fatalf("detoured stack = %v", p.MPLS.String())
	}

	// PHP entry: pop, then bypass push onto the now-bare packet.
	p2 := labeledPkt(101, 10)
	out, labeled, drop = f.ProcessLabeled(p2)
	if drop != packet.DropNone || !labeled || out != 8 {
		t.Fatalf("detoured php: out=%v labeled=%v drop=%v", out, labeled, drop)
	}
	if p2.MPLS.Depth() != 1 || p2.MPLS.At(0).Label != 777 {
		t.Fatalf("detoured php stack = %v", p2.MPLS.String())
	}

	// Untouched entry still goes its own way.
	p3 := labeledPkt(102, 10)
	out, _, _ = f.ProcessLabeled(p3)
	if out != 9 {
		t.Fatalf("unrelated entry detoured: out=%v", out)
	}
}

func TestDetourViaImplicitNullBypass(t *testing.T) {
	// A parallel-link bypass (implicit null) only changes the out link.
	f := NewLFIB()
	f.BindILM(100, NHLFE{Op: OpSwap, OutLabel: 200, OutLink: 5})
	f.DetourVia(5, packet.LabelImplicitNull, 8)
	p := labeledPkt(100, 10)
	out, _, drop := f.ProcessLabeled(p)
	if drop != packet.DropNone || out != 8 {
		t.Fatalf("parallel bypass: out=%v drop=%v", out, drop)
	}
	if p.MPLS.Depth() != 1 || p.MPLS.At(0).Label != 200 {
		t.Fatalf("stack = %v", p.MPLS.String())
	}
}

func TestDetouredPop(t *testing.T) {
	f := NewLFIB()
	f.BindILM(100, NHLFE{Op: OpPop, OutLink: 5})
	f.DetourVia(5, 777, 8)
	p := &packet.Packet{
		IP: packet.IPv4Header{TTL: 64},
		MPLS: packet.StackOf(
			packet.LabelStackEntry{Label: 100, TTL: 10},
			packet.LabelStackEntry{Label: 500, TTL: 10},
		),
	}
	out, labeled, drop := f.ProcessLabeled(p)
	if drop != packet.DropNone || !labeled || out != 8 {
		t.Fatalf("detoured pop: out=%v labeled=%v drop=%v", out, labeled, drop)
	}
	if p.MPLS.Depth() != 2 || p.MPLS.At(0).Label != 777 || p.MPLS.At(1).Label != 500 {
		t.Fatalf("stack = %v", p.MPLS.String())
	}
}
