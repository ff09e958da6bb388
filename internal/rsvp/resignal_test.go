package rsvp

import (
	"testing"

	"mplsvpn/internal/topo"
)

func TestResignalSharedExplicitOnOwnPath(t *testing.T) {
	g, src, m, _, _, dst := fish()
	p := New(g, nil, nil)
	l, err := p.Setup("grow", src, dst, 7e6, SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Path.Links) != 2 {
		t.Fatalf("expected the short path: %s", l.Path.String(g))
	}
	// Growing to 8 Mb/s on a 10 Mb/s link only works if the admission
	// shares the old reservation (RFC 3209 shared explicit): 7+8 > 10
	// would otherwise push the LSP onto the long path or fail.
	nl, err := p.Resignal(l.ID, 8e6, SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Path.Links) != 2 {
		t.Fatalf("resignal left its own path: %s", nl.Path.String(g))
	}
	lk, _ := g.FindLink(src, m)
	if lk.ReservedBw != 8e6 {
		t.Fatalf("reserved = %v, want exactly the new bandwidth", lk.ReservedBw)
	}
	if l.State != Down || nl.State != Up {
		t.Fatalf("states: old=%v new=%v", l.State, nl.State)
	}
}

func TestResignalFailureLeavesOldUp(t *testing.T) {
	g, src, m, _, _, dst := fish()
	p := New(g, nil, nil)
	l, err := p.Setup("stuck", src, dst, 4e6, SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 12 Mb/s exceeds every 10 Mb/s link: the make-before-break must fail
	// closed, leaving the old LSP up with its reservation intact.
	if _, err := p.Resignal(l.ID, 12e6, SetupOptions{}); err == nil {
		t.Fatal("resignal admitted 12 Mb/s onto 10 Mb/s links")
	}
	if l.State != Up {
		t.Fatalf("old LSP state = %v after failed resignal", l.State)
	}
	lk, _ := g.FindLink(src, m)
	if lk.ReservedBw != 4e6 {
		t.Fatalf("reserved = %v, want the old reservation restored", lk.ReservedBw)
	}
	if got, ok := p.Get(l.ID); !ok || got != l {
		t.Fatal("old LSP no longer tracked after failed resignal")
	}
}

func TestResignalInheritsPriorities(t *testing.T) {
	g, src, _, _, _, dst := fish()
	p := New(g, nil, nil)
	l, err := p.Setup("pri", src, dst, 2e6, SetupOptions{SetupPri: 2, HoldPri: 1})
	if err != nil {
		t.Fatal(err)
	}
	nl, err := p.Resignal(l.ID, 3e6, SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if nl.SetupPri != 2 || nl.HoldPri != 1 {
		t.Fatalf("priorities = %d/%d, want inherited 2/1", nl.SetupPri, nl.HoldPri)
	}
}

func TestResignalDrainsInteriorLabels(t *testing.T) {
	g, src, _, x, _, dst := fish()
	p := New(g, nil, nil)
	// Pin the long path so the LSP has interior hops (X and Y).
	long := g.KShortestPaths(src, dst, 2, topo.Constraints{})[1]
	l, err := p.Setup("drain", src, dst, 2e6, SetupOptions{Explicit: &long})
	if err != nil {
		t.Fatal(err)
	}
	oldInterior := l.hopLabels[1] // label X switches on
	if _, ok := p.LFIBFor(x).LookupILM(oldInterior); !ok {
		t.Fatal("interior ILM not installed")
	}
	var deferred []int
	p.Defer = func(id int) { deferred = append(deferred, id) }
	if _, err := p.Resignal(l.ID, 2e6, SetupOptions{}); err != nil {
		t.Fatal(err)
	}
	// Old interior labels must stay switchable until the drain fires, so
	// packets in flight on the old LSP complete instead of black-holing.
	if _, ok := p.LFIBFor(x).LookupILM(oldInterior); !ok {
		t.Fatal("old interior ILM unbound before the drain window elapsed")
	}
	if len(deferred) != 1 {
		t.Fatalf("deferred %d unbind calls, want 1", len(deferred))
	}
	if got := p.PendingDrains(); len(got) != 1 || got[0] != deferred[0] {
		t.Fatalf("pending drains = %v, want [%d]", got, deferred[0])
	}
	p.RunDrain(deferred[0])
	if _, ok := p.LFIBFor(x).LookupILM(oldInterior); ok {
		t.Fatal("old interior ILM still bound after the drain")
	}
}

func TestResignalRejectsDownLSP(t *testing.T) {
	g, src, _, _, _, dst := fish()
	p := New(g, nil, nil)
	l, err := p.Setup("gone", src, dst, 2e6, SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.Teardown(l.ID)
	if _, err := p.Resignal(l.ID, 2e6, SetupOptions{}); err == nil {
		t.Fatal("resignalled a torn-down LSP")
	}
}

// UnbindAll is what lets label tables outlive the instance that wrote into
// them: every interior ILM entry of a live LSP and of a pending
// make-before-break drain goes, silently, and the ledgers stay for the
// caller to zero.
func TestUnbindAllClearsLiveLSPsAndPendingDrains(t *testing.T) {
	g, src, m, x, y, dst := fish()
	p := New(g, nil, nil)
	p.Defer = func(int) {} // drains stay pending: nobody runs them
	long := topo.Path{}
	for _, hop := range [][2]topo.NodeID{{src, x}, {x, y}, {y, dst}} {
		l, _ := g.FindLink(hop[0], hop[1])
		long.Links = append(long.Links, l.ID)
	}
	moved, err := p.Setup("moved", src, dst, 2e6, SetupOptions{Explicit: &long})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Resignal(moved.ID, 2e6, SetupOptions{}); err != nil { // onto SRC-M-DST; X, Y drain
		t.Fatal(err)
	}
	if len(p.PendingDrains()) != 1 {
		t.Fatalf("pending drains = %v, want the old path's", p.PendingDrains())
	}
	ilm := func() int {
		n := 0
		for _, node := range []topo.NodeID{src, m, x, y, dst} {
			n += p.LFIBFor(node).ILMSize()
		}
		return n
	}
	if got := ilm(); got != 3 { // M live; X and Y draining
		t.Fatalf("interior ILM entries before = %d, want 3", got)
	}
	events := 0
	p.OnEvent = func(Event) { events++ }
	p.UnbindAll()
	if got := ilm(); got != 0 {
		t.Fatalf("interior ILM entries after UnbindAll = %d, want 0", got)
	}
	lk, _ := g.FindLink(src, m)
	if events != 0 || lk.ReservedBw != 2e6 {
		t.Fatalf("UnbindAll emitted %d events and left %v reserved, want 0 and 2e6", events, lk.ReservedBw)
	}
}
