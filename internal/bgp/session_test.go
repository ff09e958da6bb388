package bgp

import (
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
)

func vp(rd addr.RouteDistinguisher, prefix string) addr.VPNPrefix {
	return addr.VPNPrefix{RD: rd, Prefix: addr.MustParsePrefix(prefix)}
}

// threeMesh builds a converged full mesh where speaker 1 exports one route.
func threeMesh(t *testing.T) (*Mesh, *Speaker, *Speaker, *Speaker) {
	t.Helper()
	m := NewMesh()
	s1 := m.AddSpeaker(1, addr.MustParseIPv4("10.255.0.1"))
	s2 := m.AddSpeaker(2, addr.MustParseIPv4("10.255.0.2"))
	s3 := m.AddSpeaker(3, addr.MustParseIPv4("10.255.0.3"))
	s1.Originate(route(rdA, "10.1.0.0/16", 1, 100, 1, rtA))
	s2.Originate(route(rdA, "10.2.0.0/16", 2, 200, 2, rtA))
	m.Converge()
	return m, s1, s2, s3
}

func TestSessionDownWithdrawsWithoutGR(t *testing.T) {
	m, _, s2, s3 := threeMesh(t)
	impacts := m.SessionDown(1, false)
	if len(impacts) != 2 {
		t.Fatalf("impacts = %+v, want both survivors", impacts)
	}
	for _, im := range impacts {
		if im.Withdrawn != 1 || im.Stale != 0 {
			t.Fatalf("impact %+v, want 1 withdrawn 0 stale", im)
		}
	}
	for _, s := range []*Speaker{s2, s3} {
		if _, ok := s.Best(vp(rdA, "10.1.0.0/16")); ok {
			t.Fatalf("speaker %v still has the withdrawn route", s.Node)
		}
	}
	if m.WithdrawalsSent != 2 || m.SessionFlaps != 1 {
		t.Fatalf("withdrawals=%d flaps=%d", m.WithdrawalsSent, m.SessionFlaps)
	}
}

func TestGracefulRestartRetainsStale(t *testing.T) {
	m, _, s2, s3 := threeMesh(t)
	impacts := m.SessionDown(1, true)
	for _, im := range impacts {
		if im.Stale != 1 || im.Withdrawn != 0 {
			t.Fatalf("impact %+v, want 1 stale 0 withdrawn", im)
		}
	}
	// Forwarding state preserved: best paths still point at the dead box.
	for _, s := range []*Speaker{s2, s3} {
		if _, ok := s.Best(vp(rdA, "10.1.0.0/16")); !ok {
			t.Fatalf("speaker %v lost the stale route", s.Node)
		}
	}
	if m.StaleCount() != 2 || m.StaleRetained != 2 || m.WithdrawalsSent != 0 {
		t.Fatalf("stale=%d retained=%d withdrawals=%d",
			m.StaleCount(), m.StaleRetained, m.WithdrawalsSent)
	}
	// A Converge while the box is down must not resurrect or drop anything.
	m.Converge()
	if m.StaleCount() != 2 {
		t.Fatalf("stale after converge = %d, want 2", m.StaleCount())
	}
	if _, ok := s2.Best(vp(rdA, "10.1.0.0/16")); !ok {
		t.Fatal("converge dropped the stale route")
	}
}

func TestGracefulRestartRefreshSweep(t *testing.T) {
	m, s1, s2, _ := threeMesh(t)
	// Give speaker 1 a second export that will NOT return after restart.
	s1.Originate(route(rdA, "10.9.0.0/16", 1, 900, 1, rtA))
	m.Converge()
	m.SessionDown(1, true)
	if m.StaleCount() != 4 {
		t.Fatalf("stale = %d, want 4 (2 prefixes x 2 peers)", m.StaleCount())
	}
	// The box comes back having lost one export (config change during the
	// outage): the survivor refreshes, the orphan is swept.
	s1.WithdrawLocal(vp(rdA, "10.9.0.0/16"))
	m.SessionUp(1)
	m.Converge()
	swept, impacts := m.SweepStale(1)
	if swept != 2 {
		t.Fatalf("swept = %d, want 2", swept)
	}
	for _, im := range impacts {
		if im.Withdrawn != 1 {
			t.Fatalf("sweep impact %+v", im)
		}
	}
	if _, ok := s2.Best(vp(rdA, "10.1.0.0/16")); !ok {
		t.Fatal("refreshed route missing after sweep")
	}
	if _, ok := s2.Best(vp(rdA, "10.9.0.0/16")); ok {
		t.Fatal("swept route still selected")
	}
	if m.StaleCount() != 0 {
		t.Fatalf("stale after sweep = %d", m.StaleCount())
	}
}

func TestGracefulRestartTimerExpirySweepsAll(t *testing.T) {
	m, _, s2, _ := threeMesh(t)
	m.SessionDown(1, true)
	// Timer expiry without re-establishment: everything stale goes.
	swept, _ := m.SweepStale(1)
	if swept != 2 {
		t.Fatalf("swept = %d, want 2", swept)
	}
	if _, ok := s2.Best(vp(rdA, "10.1.0.0/16")); ok {
		t.Fatal("expired stale route still selected")
	}
	if m.WithdrawalsSent != 2 || m.StaleSwept != 2 {
		t.Fatalf("withdrawals=%d swept=%d", m.WithdrawalsSent, m.StaleSwept)
	}
}

func TestDoubleRestartWithinWindow(t *testing.T) {
	m, _, s2, _ := threeMesh(t)
	// First crash, graceful.
	m.SessionDown(1, true)
	// Second crash before the first restart completed: stale marks must
	// not double-count, and the state machine stays consistent.
	m.SessionDown(1, true)
	if m.StaleRetained != 2 || m.StaleCount() != 2 {
		t.Fatalf("retained=%d stale=%d after double down, want 2/2",
			m.StaleRetained, m.StaleCount())
	}
	if m.SessionFlaps != 2 {
		t.Fatalf("flaps = %d, want 2", m.SessionFlaps)
	}
	m.SessionUp(1)
	m.Converge()
	swept, _ := m.SweepStale(1)
	if swept != 0 {
		t.Fatalf("swept = %d after full refresh, want 0", swept)
	}
	if r, ok := s2.Best(vp(rdA, "10.1.0.0/16")); !ok || r.Label != 100 {
		t.Fatalf("route not refreshed after double restart: %v %v", r, ok)
	}
}

func TestRRSessionLossSeversClients(t *testing.T) {
	m := NewMesh()
	s1 := m.AddSpeaker(1, addr.MustParseIPv4("10.255.0.1"))
	m.AddSpeaker(2, addr.MustParseIPv4("10.255.0.2"))
	s3 := m.AddSpeaker(3, addr.MustParseIPv4("10.255.0.3"))
	m.UseRouteReflector(2)
	s1.Originate(route(rdA, "10.1.0.0/16", 1, 100, 1, rtA))
	m.Converge()
	if _, ok := s3.Best(vp(rdA, "10.1.0.0/16")); !ok {
		t.Fatal("reflection failed before the flap")
	}
	// Losing the RR gracefully: clients keep everything reflected, stale.
	impacts := m.SessionDown(2, true)
	found := false
	for _, im := range impacts {
		if im.Peer == 3 && im.Stale == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("client 3 impact missing: %+v", impacts)
	}
	if _, ok := s3.Best(vp(rdA, "10.1.0.0/16")); !ok {
		t.Fatal("client dropped reflected route during RR graceful restart")
	}
}

// clockAt builds a settable virtual clock for damping tests.
func clockAt(t *sim.Time) func() sim.Time { return func() sim.Time { return *t } }

func TestDampingSuppressAndReuse(t *testing.T) {
	m, s1, s2, _ := threeMesh(t)
	var now sim.Time
	m.SetClock(clockAt(&now))
	m.SetDamping(DampingConfig{
		Penalty: 1000, Suppress: 2000, Reuse: 750, HalfLife: sim.Second,
	})
	p := vp(rdA, "10.1.0.0/16")

	flap := func() {
		s1.WithdrawLocal(p)
		m.Converge()
		s1.Originate(route(rdA, "10.1.0.0/16", 1, 100, 1, rtA))
		m.Converge()
	}
	flap()
	if m.Suppressed(2, p) {
		t.Fatal("suppressed after one flap (penalty 1000 < 2000)")
	}
	if _, ok := s2.Best(p); !ok {
		t.Fatal("route missing after first flap")
	}
	flap()
	if !m.Suppressed(2, p) {
		t.Fatal("not suppressed after two flaps (penalty 2000)")
	}
	if _, ok := s2.Best(p); ok {
		t.Fatal("suppressed route still selected")
	}
	if got := m.TakeSuppressed(); len(got) != 1 || got[0] != p {
		t.Fatalf("TakeSuppressed = %v", got)
	}
	if m.RouteSuppressions == 0 {
		t.Fatal("suppression not counted")
	}
	// Exports are never damped: the origin keeps its own route.
	if _, ok := s1.Best(p); !ok {
		t.Fatal("origin lost its own export to damping")
	}

	// Decay: after ~1.5 half-lives the penalty (2000) falls to ~707 <= 750.
	now = 1500 * sim.Millisecond
	reused := m.DecayDamping(now)
	if len(reused) == 0 {
		t.Fatal("no prefixes reused after decay")
	}
	if m.Suppressed(2, p) {
		t.Fatal("still suppressed after reuse crossing")
	}
	if _, ok := s2.Best(p); !ok {
		t.Fatal("reused route not reinstated")
	}
	if m.RouteReuses == 0 {
		t.Fatal("reuse not counted")
	}
}

func TestGRRefreshIsNotAFlap(t *testing.T) {
	m, _, _, _ := threeMesh(t)
	var now sim.Time
	m.SetClock(clockAt(&now))
	m.SetDamping(DampingConfig{
		Penalty: 1000, Suppress: 1000, Reuse: 500, HalfLife: sim.Second,
	})
	p := vp(rdA, "10.1.0.0/16")
	// Two graceful restart cycles: stale retention + in-place refresh must
	// never charge the damping penalty.
	for i := 0; i < 2; i++ {
		m.SessionDown(1, true)
		m.SessionUp(1)
		m.Converge()
		m.SweepStale(1)
	}
	if m.Suppressed(2, p) || m.RouteSuppressions != 0 {
		t.Fatalf("graceful restart charged damping: suppressions=%d", m.RouteSuppressions)
	}
	// Hard flaps through the same machinery DO count.
	for i := 0; i < 2; i++ {
		m.SessionDown(1, false)
		m.SessionUp(1)
		m.Converge()
	}
	if !m.Suppressed(2, p) {
		t.Fatal("hard session flaps did not charge damping")
	}
}

func TestDampingMaxPenaltyCaps(t *testing.T) {
	m, s1, _, _ := threeMesh(t)
	var now sim.Time
	m.SetClock(clockAt(&now))
	m.SetDamping(DampingConfig{
		Penalty: 1000, Suppress: 2000, Reuse: 750, HalfLife: sim.Second, MaxPenalty: 3000,
	})
	p := vp(rdA, "10.1.0.0/16")
	for i := 0; i < 10; i++ {
		s1.WithdrawLocal(p)
		m.Converge()
		s1.Originate(route(rdA, "10.1.0.0/16", 1, 100, 1, rtA))
		m.Converge()
	}
	// Cap 3000 decays to 750 in two half-lives; uncapped 10000 would need
	// nearly four. The cap bounds the suppression tail.
	now = 2 * sim.Second
	if got := m.DecayDamping(now); len(got) != 1 {
		t.Fatalf("reused = %v, want the capped prefix back", got)
	}
}

// TestSingleReflectorDoesNotRefreshStale: a reflector keeps a restarting
// client's routes for forwarding but must not re-announce them — the
// reflected copies would refresh the other clients' stale routes in place,
// clear their marks, and leave a dead route as a best path that no sweep
// finds. The single-reflector arm of Converge used to do exactly that; the
// same four speakers as one cluster never did, and the two must agree.
func TestSingleReflectorDoesNotRefreshStale(t *testing.T) {
	p := vp(rdA, "10.1.0.0/16")
	for _, layout := range []string{"route reflector", "one cluster"} {
		m := NewMesh()
		for n := topo.NodeID(0); n < 4; n++ {
			m.AddSpeaker(n, addr.IPv4(0x0aff0000+uint32(n)))
		}
		if layout == "one cluster" {
			m.UseClusters([]Cluster{{ID: 1, RRs: []topo.NodeID{0}, Clients: []topo.NodeID{1, 2, 3}}})
		} else {
			m.UseRouteReflector(0)
		}
		s1, _ := m.Speaker(1)
		s3, _ := m.Speaker(3)
		s1.Originate(route(rdA, "10.1.0.0/16", 1, 100, 1, rtA))
		m.Converge()

		m.SessionDown(1, true)
		before := m.StaleCount()
		m.Converge()
		after := m.StaleCount()
		swept, _ := m.SweepStale(1)
		if before != 3 || after != 3 || swept != 3 {
			t.Errorf("%s: stale routes %d, %d after a Converge, %d swept; want 3, 3, 3", layout, before, after, swept)
		}
		if r, ok := s3.Best(p); ok {
			t.Errorf("%s: client 3 still selects %v after the sweep", layout, r)
		}
	}
}
