package rsvp

import (
	"testing"

	"mplsvpn/internal/mpls"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
)

// fish builds the TE fish: SRC-M-DST (short) and SRC-X-Y-DST (long), all
// links 10 Mb/s.
func fish() (g *topo.Graph, src, m, x, y, dst topo.NodeID) {
	g = topo.New()
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

func TestSetupReservesBandwidth(t *testing.T) {
	g, src, m, _, _, dst := fish()
	p := New(g, nil, nil)
	l, err := p.Setup("lsp1", src, dst, 4e6, SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if l.State != Up || len(l.Path.Links) != 2 {
		t.Fatalf("lsp = %+v", l)
	}
	lk, _ := g.FindLink(src, m)
	if lk.ReservedBw != 4e6 {
		t.Fatalf("reserved = %v", lk.ReservedBw)
	}
	if l.Entry.Op != mpls.OpPush {
		t.Fatalf("entry = %+v", l.Entry)
	}
}

func TestSecondLSPRoutesAroundReservation(t *testing.T) {
	g, src, _, x, _, dst := fish()
	p := New(g, nil, nil)
	if _, err := p.Setup("first", src, dst, 8e6, SetupOptions{}); err != nil {
		t.Fatal(err)
	}
	// Second 8 Mb/s LSP cannot fit on the 10 Mb/s short path: CSPF must
	// pick the long way. This is experiment E5's core behaviour.
	l2, err := p.Setup("second", src, dst, 8e6, SetupOptions{SetupPri: 4, HoldPri: 4})
	if err != nil {
		t.Fatal(err)
	}
	nodes := l2.Path.Nodes(g)
	if len(nodes) != 4 || nodes[1] != x {
		t.Fatalf("second LSP path = %v, want via X-Y", nodes)
	}
}

func TestAdmissionControlRejects(t *testing.T) {
	g, src, _, _, _, dst := fish()
	p := New(g, nil, nil)
	if _, err := p.Setup("a", src, dst, 8e6, SetupOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Setup("b", src, dst, 8e6, SetupOptions{}); err != nil {
		t.Fatal(err)
	}
	// Third one fits nowhere at equal priority.
	if _, err := p.Setup("c", src, dst, 8e6, SetupOptions{}); err == nil {
		t.Fatal("admission control admitted 24 Mb/s onto 20 Mb/s of capacity")
	}
	if p.SetupFails != 1 {
		t.Fatalf("SetupFails = %d", p.SetupFails)
	}
}

func TestPreemption(t *testing.T) {
	g, src, m, _, _, dst := fish()
	p := New(g, nil, nil)
	// Fill both paths with weak (pri 6) LSPs.
	l1, err := p.Setup("weak1", src, dst, 8e6, SetupOptions{SetupPri: 6, HoldPri: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Setup("weak2", src, dst, 8e6, SetupOptions{SetupPri: 6, HoldPri: 6}); err != nil {
		t.Fatal(err)
	}
	// A strong (pri 2) LSP preempts one of them.
	strong, err := p.Setup("strong", src, dst, 8e6, SetupOptions{SetupPri: 2, HoldPri: 2})
	if err != nil {
		t.Fatalf("strong setup failed: %v", err)
	}
	if strong.State != Up {
		t.Fatal("strong LSP not up")
	}
	if p.Preemptions == 0 {
		t.Fatal("no preemption recorded")
	}
	if l1.State != Down {
		// weak1 held the short path, which the strong LSP takes.
		t.Fatalf("expected weak1 preempted, state=%v", l1.State)
	}
	lk, _ := g.FindLink(src, m)
	if lk.ReservedBw > 10e6 {
		t.Fatalf("over-reservation after preemption: %v", lk.ReservedBw)
	}
}

func TestTeardownReleases(t *testing.T) {
	g, src, m, _, _, dst := fish()
	p := New(g, nil, nil)
	l, _ := p.Setup("x", src, dst, 5e6, SetupOptions{})
	if !p.Teardown(l.ID) {
		t.Fatal("teardown failed")
	}
	lk, _ := g.FindLink(src, m)
	if lk.ReservedBw != 0 {
		t.Fatalf("bandwidth not released: %v", lk.ReservedBw)
	}
	if p.Teardown(l.ID) {
		t.Fatal("double teardown succeeded")
	}
	if len(p.LSPs()) != 0 {
		t.Fatal("LSP list not empty after teardown")
	}
}

func TestExplicitRoute(t *testing.T) {
	g, src, m, x, _, dst := fish()
	p := New(g, nil, nil)
	// Pin the long path explicitly even though the short one is free.
	long, _ := g.CSPF(src, topo.Constraints{ExcludeNodes: map[topo.NodeID]bool{m: true}}).PathTo(g, dst)
	l, err := p.Setup("explicit", src, dst, 2e6, SetupOptions{Explicit: &long})
	if err != nil {
		t.Fatal(err)
	}
	nodes := l.Path.Nodes(g)
	if nodes[1] != x {
		t.Fatalf("explicit route ignored: %v", nodes)
	}
}

func TestExplicitRouteAdmission(t *testing.T) {
	g, src, _, _, _, dst := fish()
	p := New(g, nil, nil)
	short, _ := g.SPF(src).PathTo(g, dst)
	if _, err := p.Setup("fill", src, dst, 9e6, SetupOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Setup("pinned", src, dst, 5e6, SetupOptions{Explicit: &short}); err == nil {
		t.Fatal("explicit route bypassed admission control")
	}
}

// Walk the LSP's label bindings from ingress to egress, as the data plane
// would, and confirm they form a connected chain ending with PHP.
func TestLabelChainConsistency(t *testing.T) {
	g, src, _, _, _, dst := fish()
	p := New(g, nil, nil)
	if _, err := p.Setup("fill", src, dst, 8e6, SetupOptions{}); err != nil {
		t.Fatal(err)
	}
	l, err := p.Setup("lsp", src, dst, 8e6, SetupOptions{}) // long path, 3 hops
	if err != nil {
		t.Fatal(err)
	}
	pkt := &packet.Packet{IP: packet.IPv4Header{TTL: 64}}
	// Ingress push.
	if l.Entry.OutLabel == packet.LabelImplicitNull {
		t.Fatal("3-hop LSP should not be PHP at ingress")
	}
	pkt.MPLS.Push(packet.LabelStackEntry{Label: l.Entry.OutLabel, TTL: 64})
	at := g.Link(l.Entry.OutLink).To
	hops := 0
	for pkt.MPLS.Depth() > 0 {
		out, labeled, drop := p.LFIBFor(at).ProcessLabeled(pkt)
		if drop != packet.DropNone {
			t.Fatalf("forwarding broke at %s: %v", g.Name(at), drop)
		}
		at = g.Link(out).To
		hops++
		if !labeled {
			break
		}
		if hops > 10 {
			t.Fatal("label chain loops")
		}
	}
	if at != dst {
		t.Fatalf("packet ended at %s, want DST", g.Name(at))
	}
}

func TestSetupNoRoute(t *testing.T) {
	g := topo.New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	p := New(g, nil, nil)
	if _, err := p.Setup("x", a, b, 1e6, SetupOptions{}); err == nil {
		t.Fatal("setup succeeded with no route")
	}
}

func TestGetAndList(t *testing.T) {
	g, src, _, _, _, dst := fish()
	p := New(g, nil, nil)
	l, _ := p.Setup("one", src, dst, 1e6, SetupOptions{})
	got, ok := p.Get(l.ID)
	if !ok || got.Name != "one" {
		t.Fatalf("Get = %+v %v", got, ok)
	}
	if len(p.LSPs()) != 1 {
		t.Fatal("LSPs() wrong")
	}
}

func TestReoptimizeMakeBeforeBreak(t *testing.T) {
	g, src, m, _, _, dst := fish()
	p := New(g, nil, nil)
	// Fill the short path so the victim LSP lands on the long one.
	filler, _ := p.Setup("filler", src, dst, 8e6, SetupOptions{})
	l, err := p.Setup("vic", src, dst, 4e6, SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Path.Links) != 3 {
		t.Fatalf("victim should start on the long path: %s", l.Path.String(g))
	}
	// The short path frees up; re-optimization moves the LSP there.
	p.Teardown(filler.ID)
	nl, err := p.ReoptimizeAvoiding(l.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Path.Links) != 2 {
		t.Fatalf("reoptimized path: %s", nl.Path.String(g))
	}
	if l.State != Down || nl.State != Up {
		t.Fatalf("states: old=%v new=%v", l.State, nl.State)
	}
	// Reservations are exactly the new LSP's.
	lk, _ := g.FindLink(src, m)
	if lk.ReservedBw != 4e6 {
		t.Fatalf("short-path reservation = %v", lk.ReservedBw)
	}
	if _, err := p.ReoptimizeAvoiding(l.ID, nil); err == nil {
		t.Fatal("reoptimized a down LSP")
	}
}

func TestSetupBypassAvoidsProtectedFibre(t *testing.T) {
	g, src, m, x, y, dst := fish()
	p := New(g, nil, nil)
	l, _ := g.FindLink(src, m)
	byp, err := p.SetupBypass("byp", l.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes := byp.Path.Nodes(g)
	// Bypass from SRC to M avoiding SRC-M: SRC-X-Y-DST-M.
	want := []topo.NodeID{src, x, y, dst, m}
	if len(nodes) != len(want) {
		t.Fatalf("bypass path: %s", byp.Path.String(g))
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("bypass path: %s", byp.Path.String(g))
		}
	}
	if byp.Bandwidth != 0 {
		t.Fatal("bypass reserved bandwidth")
	}
	// A link with no alternative cannot be protected.
	g2 := topo.New()
	a := g2.AddNode("A")
	b := g2.AddNode("B")
	g2.AddDuplexLink(a, b, 10e6, sim.Millisecond, 1)
	p2 := New(g2, nil, nil)
	l2, _ := g2.FindLink(a, b)
	if _, err := p2.SetupBypass("x", l2.ID, nil); err == nil {
		t.Fatal("protected an unprotectable link")
	}
}

func TestStateStringsAndReservedOn(t *testing.T) {
	if Up.String() != "up" || Down.String() != "down" {
		t.Fatal("state names")
	}
	if CT1.String() != "CT1" {
		t.Fatal("class type name")
	}
	g, src, m, _, _, dst := fish()
	p := New(g, nil, nil)
	p.Setup("x", src, dst, 3e6, SetupOptions{})
	lk, _ := g.FindLink(src, m)
	if p.ReservedOn(lk.ID) != 3e6 {
		t.Fatalf("ReservedOn = %v", p.ReservedOn(lk.ID))
	}
}

func TestReoptimizeAvoiding(t *testing.T) {
	g, src, m, _, _, dst := fish()
	p := New(g, nil, nil)

	var events []Event
	p.OnEvent = func(e Event) { events = append(events, e) }

	l, err := p.Setup("voice", src, dst, 2e6, SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Name(l.Path.Nodes(g)[1]) != "M" {
		t.Fatalf("initial path should ride the short M branch: %s", l.Path.String(g))
	}
	// Declare the M->DST link hot; the LSP must move to the long branch.
	hot, _ := g.FindLink(m, dst)
	nl, err := p.ReoptimizeAvoiding(l.ID, map[topo.LinkID]bool{hot.ID: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, lid := range nl.Path.Links {
		if lid == hot.ID {
			t.Fatalf("reoptimized path still uses the avoided link: %s", nl.Path.String(g))
		}
	}
	if hot.ReservedBw != 0 {
		t.Fatalf("old reservation not released: %v", hot.ReservedBw)
	}
	// Events: setup, setup (new path), reoptimized — no bare teardown for
	// the make-before-break break leg.
	kinds := []EventKind{}
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	want := []EventKind{EventSetup, EventSetup, EventReoptimized}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events = %v, want %v", kinds, want)
		}
	}
	last := events[len(events)-1]
	if last.Detail != "SRC-M-DST => SRC-X-Y-DST" {
		t.Fatalf("reoptimize detail = %q", last.Detail)
	}
}

func TestAvoidRejectedWhenNoAlternative(t *testing.T) {
	g := topo.New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	g.AddDuplexLink(a, b, 10e6, sim.Millisecond, 1)
	p := New(g, nil, nil)
	l, err := p.Setup("only", a, b, 1e6, SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var failed bool
	p.OnEvent = func(e Event) {
		if e.Kind == EventSetupFailed {
			failed = true
		}
	}
	if _, err := p.ReoptimizeAvoiding(l.ID, map[topo.LinkID]bool{l.Path.Links[0]: true}); err == nil {
		t.Fatal("avoiding the only link must fail")
	}
	if !failed {
		t.Fatal("setup failure must be reported through OnEvent")
	}
	if got, _ := p.Get(l.ID); got == nil || got.State != Up {
		t.Fatal("failed reoptimize must leave the original LSP up")
	}
}

func TestPreemptionEmitsEvent(t *testing.T) {
	g := topo.New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	g.AddDuplexLink(a, b, 10e6, sim.Millisecond, 1)
	p := New(g, nil, nil)
	if _, err := p.Setup("weak", a, b, 8e6, SetupOptions{SetupPri: 6, HoldPri: 6}); err != nil {
		t.Fatal(err)
	}
	var preempted []Event
	p.OnEvent = func(e Event) {
		if e.Kind == EventPreempted {
			preempted = append(preempted, e)
		}
	}
	if _, err := p.Setup("strong", a, b, 8e6, SetupOptions{SetupPri: 2, HoldPri: 2}); err != nil {
		t.Fatal(err)
	}
	if len(preempted) != 1 || preempted[0].Name != "weak" {
		t.Fatalf("preempted = %+v", preempted)
	}
}
