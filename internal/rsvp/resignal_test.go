package rsvp

import (
	"testing"

	"mplsvpn/internal/mpls"
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
	g, src, m, x, _, dst := fish()
	p := New(g, nil, nil)
	// Pin the long path so the LSP has interior hops (X and Y).
	long, _ := g.CSPF(src, topo.Constraints{ExcludeNodes: map[topo.NodeID]bool{m: true}}).PathTo(g, dst)
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

// movedWithDrain sets up one LSP on the fish's long side and moves it to the
// short one, leaving the old path's interior labels in a pending drain.
func movedWithDrain(t *testing.T) (*Protocol, *topo.Graph, []topo.NodeID, *LSP) {
	t.Helper()
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
	nl, err := p.Resignal(moved.ID, 2e6, SetupOptions{}) // onto SRC-M-DST; X, Y drain
	if err != nil {
		t.Fatal(err)
	}
	if len(p.PendingDrains()) != 1 {
		t.Fatalf("pending drains = %v, want the old path's", p.PendingDrains())
	}
	return p, g, []topo.NodeID{src, m, x, y, dst}, nl
}

func ilmEntries(p *Protocol, nodes []topo.NodeID) int {
	n := 0
	for _, node := range nodes {
		n += p.LFIBFor(node).ILMSize()
	}
	return n
}

// Release is the batch half of make-before-break: silent, the reservation
// gone at once, and with drain set the interior labels left switchable until
// the deferred unbind; without it they go immediately.
func TestReleaseIsSilentAndDrainsOnRequest(t *testing.T) {
	for _, drain := range []bool{true, false} {
		p, g, nodes, l := movedWithDrain(t)
		events := 0
		p.OnEvent = func(Event) { events++ }
		if !p.Release(l.ID, drain) {
			t.Fatalf("drain=%t: Release refused an Up LSP", drain)
		}
		lk, _ := g.FindLink(nodes[0], nodes[1])
		if events != 0 || lk.ReservedBw != 0 || l.State != Down {
			t.Fatalf("drain=%t: %d events, %v reserved, state %v; want silent, released, down", drain, events, lk.ReservedBw, l.State)
		}
		wantILM, wantDrains := 2, 1 // X and Y from the earlier move
		if drain {
			wantILM, wantDrains = 3, 2 // plus M, now draining too
		}
		if got := ilmEntries(p, nodes); got != wantILM || len(p.PendingDrains()) != wantDrains {
			t.Fatalf("drain=%t: %d ILM entries and drains %v, want %d and %d", drain, got, p.PendingDrains(), wantILM, wantDrains)
		}
		if p.Release(l.ID, drain) {
			t.Fatalf("drain=%t: released the same LSP twice", drain)
		}
	}
}

// Rebind is what a full reconvergence does to the one long-lived protocol:
// the old tables are the caller's to discard, so nothing is unbound, every
// LSP is Down with its reservation returned, pending drains are forgotten,
// and the next LSP takes the next ID, never an old one.
func TestRebindReleasesEverythingAndKeepsCounting(t *testing.T) {
	p, g, nodes, l := movedWithDrain(t)
	fresh := map[topo.NodeID]*mpls.LFIB{}
	msgs := p.PathMessages
	p.Rebind(fresh)
	if l.State != Down || len(p.LSPs()) != 0 || len(p.PendingDrains()) != 0 {
		t.Fatalf("after Rebind: state %v, %d LSPs, drains %v", l.State, len(p.LSPs()), p.PendingDrains())
	}
	for i := 0; i < g.NumLinks(); i++ {
		if r := g.Link(topo.LinkID(i)).ReservedBw; r != 0 {
			t.Fatalf("link %d still holds %v", i, r)
		}
	}
	if got := ilmEntries(p, nodes); got != 0 {
		t.Fatalf("fresh tables hold %d ILM entries", got)
	}
	nl, err := p.Setup("again", nodes[0], nodes[4], 2e6, SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if nl.ID <= l.ID || p.PathMessages <= msgs {
		t.Fatalf("LSP ID %d after %d, PathMessages %d after %d: identity and totals must carry on", nl.ID, l.ID, p.PathMessages, msgs)
	}
	if fresh[nodes[1]] == nil || fresh[nodes[1]].ILMSize() != 1 {
		t.Fatal("the new LSP's transit label is not in the replacement tables")
	}
}
