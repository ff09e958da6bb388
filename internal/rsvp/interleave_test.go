package rsvp

import (
	"testing"

	"mplsvpn/internal/sim"
)

// These tests pin the soft-state interleavings that production RSVP gets
// wrong at the worst times: a refresh (link heal) landing on the same
// engine tick as the scan that would expire the state, and a voluntary
// teardown racing the expiry scan. The engine breaks same-time ties by
// schedule order, so both orders of each race are driven explicitly and
// each must give its own deterministic outcome with reservations released
// exactly once.

// call is a func as a sim.Action, so a test posts its timed steps on a
// bare engine.
type call func()

func (f call) Run() { f() }

// scanBeforeExpiry drives an LSP to the brink: the path goes down and two
// scans miss, so the next scan is the K=3 expiry.
func scanToBrink(t *testing.T, e *sim.Engine, p *Protocol) {
	t.Helper()
	e.Post(1*sim.Millisecond, call(func() { p.RefreshScan(3) }))
	e.Post(2*sim.Millisecond, call(func() { p.RefreshScan(3) }))
}

func TestRefreshHealSameTickAsExpiryScan(t *testing.T) {
	// Heal scheduled BEFORE the scan on the same tick: the scan sees a
	// clean path, resets the miss counter, and the LSP survives.
	g, src, m, _, _, dst := fish()
	p := New(g, nil, nil)
	l, err := p.Setup("race", src, dst, 4e6, SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(1)
	g.SetLinkDown(src, m, true)
	scanToBrink(t, e, p)
	e.Post(3*sim.Millisecond, call(func() { g.SetLinkDown(src, m, false) }))
	e.Post(3*sim.Millisecond, call(func() { p.RefreshScan(3) }))
	e.Run()
	if l.State != Up {
		t.Fatalf("LSP state %v after heal-then-scan, want Up", l.State)
	}
	if p.Timeouts != 0 {
		t.Fatalf("Timeouts = %d, want 0", p.Timeouts)
	}
	// The counter reset must be real: three fresh misses are needed again.
	g.SetLinkDown(src, m, true)
	p.RefreshScan(3)
	p.RefreshScan(3)
	if l.State != Up {
		t.Fatal("miss counter was not reset by the same-tick heal")
	}
}

func TestExpiryScanSameTickBeforeHeal(t *testing.T) {
	// The mirror order: the scan runs first on the shared tick, so the
	// third miss tears the LSP down; the heal arrives one event too late.
	g, src, m, _, _, dst := fish()
	p := New(g, nil, nil)
	l, err := p.Setup("race", src, dst, 4e6, SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(1)
	g.SetLinkDown(src, m, true)
	scanToBrink(t, e, p)
	e.Post(3*sim.Millisecond, call(func() { p.RefreshScan(3) }))
	e.Post(3*sim.Millisecond, call(func() { g.SetLinkDown(src, m, false) }))
	e.Run()
	if l.State == Up {
		t.Fatal("LSP survived a scan that ran before the heal")
	}
	if p.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", p.Timeouts)
	}
	lk, _ := g.FindLink(src, m)
	if lk.ReservedBw != 0 {
		t.Fatalf("reservation not released: %v", lk.ReservedBw)
	}
	// The released capacity must be immediately reusable at full size.
	if _, err := p.Setup("replacement", src, dst, 10e6, SetupOptions{}); err != nil {
		t.Fatalf("full-bandwidth re-setup after expiry: %v", err)
	}
}

func TestTeardownSameTickAsExpiryScan(t *testing.T) {
	// Voluntary teardown scheduled before the expiry scan: the scan must
	// see a dead LSP and not double-release or double-count.
	g, src, m, _, _, dst := fish()
	p := New(g, nil, nil)
	l, err := p.Setup("race", src, dst, 4e6, SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(1)
	g.SetLinkDown(src, m, true)
	scanToBrink(t, e, p)
	e.Post(3*sim.Millisecond, call(func() { p.Teardown(l.ID) }))
	e.Post(3*sim.Millisecond, call(func() {
		if got := p.RefreshScan(3); len(got) != 0 {
			t.Errorf("scan expired %v after a same-tick teardown", got)
		}
	}))
	e.Run()
	if p.Timeouts != 0 {
		t.Fatalf("Timeouts = %d after voluntary teardown, want 0", p.Timeouts)
	}
	lk, _ := g.FindLink(src, m)
	if lk.ReservedBw != 0 {
		t.Fatalf("reservation after teardown+scan: %v (double release would go negative)", lk.ReservedBw)
	}
}

func TestExpiryScanSameTickBeforeTeardown(t *testing.T) {
	// The mirror order: expiry wins the tick, then the voluntary teardown
	// must be a no-op returning false — not a second release.
	g, src, m, _, _, dst := fish()
	p := New(g, nil, nil)
	l, err := p.Setup("race", src, dst, 4e6, SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(1)
	g.SetLinkDown(src, m, true)
	scanToBrink(t, e, p)
	e.Post(3*sim.Millisecond, call(func() { p.RefreshScan(3) }))
	e.Post(3*sim.Millisecond, call(func() {
		if p.Teardown(l.ID) {
			t.Error("Teardown returned true for an already-expired LSP")
		}
	}))
	e.Run()
	if p.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", p.Timeouts)
	}
	lk, _ := g.FindLink(src, m)
	if lk.ReservedBw != 0 {
		t.Fatalf("reservation = %v, want 0 (and never negative)", lk.ReservedBw)
	}
}
