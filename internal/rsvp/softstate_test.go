package rsvp

import "testing"

func TestRefreshScanExpiresBrokenLSP(t *testing.T) {
	g, src, m, _, _, dst := fish()
	p := New(g, nil, nil)
	l, err := p.Setup("soft", src, dst, 4e6, SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	p.OnEvent = func(e Event) { events = append(events, e) }

	// Healthy path: scans are no-ops.
	for i := 0; i < 5; i++ {
		if got := p.RefreshScan(3); len(got) != 0 {
			t.Fatalf("scan %d expired %v on a healthy path", i, got)
		}
	}

	// Break the path; two misses are not yet a timeout.
	g.SetLinkDown(src, m, true)
	for i := 0; i < 2; i++ {
		if got := p.RefreshScan(3); len(got) != 0 {
			t.Fatalf("expired after only %d misses: %v", i+1, got)
		}
	}
	if l.State != Up {
		t.Fatalf("LSP torn down early: %v", l.State)
	}

	// Third miss: torn down, bandwidth released, event emitted.
	got := p.RefreshScan(3)
	if len(got) != 1 || got[0] != l.ID {
		t.Fatalf("expired = %v, want [%d]", got, l.ID)
	}
	if l.State == Up {
		t.Fatal("LSP still Up after refresh timeout")
	}
	if p.Timeouts != 1 {
		t.Fatalf("Timeouts = %d", p.Timeouts)
	}
	lk, _ := g.FindLink(src, m)
	if lk.ReservedBw != 0 {
		t.Fatalf("reservation not released: %v", lk.ReservedBw)
	}
	if len(events) != 1 || events[0].Kind != EventRefreshTimeout || events[0].LSPID != l.ID {
		t.Fatalf("events = %+v", events)
	}

	// Further scans leave the dead LSP alone.
	if got := p.RefreshScan(3); len(got) != 0 {
		t.Fatalf("dead LSP expired again: %v", got)
	}
}

func TestRefreshScanMissCounterResets(t *testing.T) {
	g, src, m, _, _, dst := fish()
	p := New(g, nil, nil)
	l, err := p.Setup("flappy", src, dst, 1e6, SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Two misses, then the link heals: the counter must reset, so two more
	// misses still do not reach the K=3 timeout.
	g.SetLinkDown(src, m, true)
	p.RefreshScan(3)
	p.RefreshScan(3)
	g.SetLinkDown(src, m, false)
	p.RefreshScan(3)
	g.SetLinkDown(src, m, true)
	p.RefreshScan(3)
	p.RefreshScan(3)
	if l.State != Up {
		t.Fatal("LSP torn down despite healed refresh in between")
	}
	if got := p.RefreshScan(3); len(got) != 1 {
		t.Fatalf("third consecutive miss should expire, got %v", got)
	}
}
