package bgp

import (
	"strings"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/topo"
)

var (
	rdA = addr.RouteDistinguisher{Admin: 65000, Assigned: 1}
	rdB = addr.RouteDistinguisher{Admin: 65000, Assigned: 2}
	rtA = addr.RouteTarget{Admin: 65000, Assigned: 1}
	rtB = addr.RouteTarget{Admin: 65000, Assigned: 2}
)

func route(rd addr.RouteDistinguisher, prefix string, nh uint32, label uint32, origin topo.NodeID, rts ...addr.RouteTarget) *VPNRoute {
	return &VPNRoute{
		Prefix:    addr.VPNPrefix{RD: rd, Prefix: addr.MustParsePrefix(prefix)},
		NextHop:   addr.IPv4(nh),
		Label:     packet.Label(label),
		RTs:       rts,
		LocalPref: 100,
		OriginPE:  origin,
	}
}

func TestFullMeshDistribution(t *testing.T) {
	m := NewMesh()
	s1 := m.AddSpeaker(1, addr.MustParseIPv4("10.255.0.1"))
	s2 := m.AddSpeaker(2, addr.MustParseIPv4("10.255.0.2"))
	s3 := m.AddSpeaker(3, addr.MustParseIPv4("10.255.0.3"))
	s1.Originate(route(rdA, "10.1.0.0/16", 1, 100, 1, rtA))
	m.Converge()
	for _, s := range []*Speaker{s2, s3} {
		r, ok := s.Best(addr.VPNPrefix{RD: rdA, Prefix: addr.MustParsePrefix("10.1.0.0/16")})
		if !ok || r.Label != 100 {
			t.Fatalf("speaker %v missing route: %v %v", s.Node, r, ok)
		}
	}
	if m.SessionCount() != 3 {
		t.Fatalf("full mesh of 3 should need 3 sessions, got %d", m.SessionCount())
	}
}

func TestOverlappingPrefixesDistinctByRD(t *testing.T) {
	// The central RFC 2547 test: two VPNs announce the same 10.0.0.0/8 and
	// both routes must coexist in every RIB.
	m := NewMesh()
	s1 := m.AddSpeaker(1, addr.MustParseIPv4("10.255.0.1"))
	s2 := m.AddSpeaker(2, addr.MustParseIPv4("10.255.0.2"))
	m.AddSpeaker(3, addr.MustParseIPv4("10.255.0.3"))
	s1.Originate(route(rdA, "10.0.0.0/8", 1, 100, 1, rtA))
	s2.Originate(route(rdB, "10.0.0.0/8", 2, 200, 2, rtB))
	m.Converge()
	s3, _ := m.Speaker(3)
	ra, oka := s3.Best(addr.VPNPrefix{RD: rdA, Prefix: addr.MustParsePrefix("10.0.0.0/8")})
	rb, okb := s3.Best(addr.VPNPrefix{RD: rdB, Prefix: addr.MustParsePrefix("10.0.0.0/8")})
	if !oka || !okb {
		t.Fatal("overlapping prefixes collided")
	}
	if ra.Label == rb.Label {
		t.Fatal("distinct VPN routes share a label unexpectedly")
	}
}

func TestBestPathSelection(t *testing.T) {
	m := NewMesh()
	s1 := m.AddSpeaker(1, addr.MustParseIPv4("10.255.0.1"))
	s2 := m.AddSpeaker(2, addr.MustParseIPv4("10.255.0.2"))
	s3 := m.AddSpeaker(3, addr.MustParseIPv4("10.255.0.3"))
	// Same prefix from two PEs (multihomed site). Higher LocalPref wins.
	r1 := route(rdA, "10.1.0.0/16", 100, 100, 1, rtA)
	r1.LocalPref = 200
	r2 := route(rdA, "10.1.0.0/16", 200, 200, 2, rtA)
	s1.Originate(r1)
	s2.Originate(r2)
	m.Converge()
	best, _ := s3.Best(addr.VPNPrefix{RD: rdA, Prefix: addr.MustParsePrefix("10.1.0.0/16")})
	if best.Label != 100 {
		t.Fatalf("LocalPref not honoured: chose label %d", best.Label)
	}
	// Equal pref: shorter AS path. The mesh keeps copies of what was
	// originated, so a changed route is originated again.
	r1.LocalPref, r2.LocalPref = 100, 100
	r1.ASPathLen, r2.ASPathLen = 3, 1
	s1.Originate(r1)
	s2.Originate(r2)
	m.Converge()
	best, _ = s3.Best(addr.VPNPrefix{RD: rdA, Prefix: addr.MustParsePrefix("10.1.0.0/16")})
	if best.Label != 200 {
		t.Fatalf("AS path length not honoured: chose label %d", best.Label)
	}
	// Full tie: lowest next hop.
	r1.ASPathLen, r2.ASPathLen = 1, 1
	s1.Originate(r1)
	s2.Originate(r2)
	m.Converge()
	best, _ = s3.Best(addr.VPNPrefix{RD: rdA, Prefix: addr.MustParsePrefix("10.1.0.0/16")})
	if best.NextHop != 100 {
		t.Fatalf("next-hop tie-break not honoured: %v", best.NextHop)
	}
}

func TestImportFilterLimitsRIB(t *testing.T) {
	m := NewMesh()
	s1 := m.AddSpeaker(1, addr.MustParseIPv4("10.255.0.1"))
	s2 := m.AddSpeaker(2, addr.MustParseIPv4("10.255.0.2"))
	s1.Originate(route(rdA, "10.1.0.0/16", 1, 100, 1, rtA))
	s1.Originate(route(rdB, "10.2.0.0/16", 1, 101, 1, rtB))
	// Speaker 2 only serves VPN A.
	s2.Filter = func(r *VPNRoute) bool { return r.HasRT(rtA) }
	m.Converge()
	if s2.RIBSize() != 1 {
		t.Fatalf("RIB size = %d, want 1 (filtered)", s2.RIBSize())
	}
	if s2.Received != 2 || s2.Retained != 1 {
		t.Fatalf("received/retained = %d/%d", s2.Received, s2.Retained)
	}
}

// useReflector makes rr the one reflector of a single cluster whose clients
// are every other speaker of m: a single route reflector.
func useReflector(m *Mesh, rr topo.NodeID) {
	var clients []topo.NodeID
	for _, n := range m.sortedIDs() {
		if n != rr {
			clients = append(clients, n)
		}
	}
	m.UseClusters([]Cluster{{ID: 1, RRs: []topo.NodeID{rr}, Clients: clients}})
}

func TestRouteReflector(t *testing.T) {
	m := NewMesh()
	s1 := m.AddSpeaker(1, addr.MustParseIPv4("10.255.0.1"))
	m.AddSpeaker(2, addr.MustParseIPv4("10.255.0.2"))
	s3 := m.AddSpeaker(3, addr.MustParseIPv4("10.255.0.3"))
	useReflector(m, 2)
	s1.Originate(route(rdA, "10.1.0.0/16", 1, 100, 1, rtA))
	m.Converge()
	r, ok := s3.Best(addr.VPNPrefix{RD: rdA, Prefix: addr.MustParsePrefix("10.1.0.0/16")})
	if !ok || r.Label != 100 {
		t.Fatalf("route not reflected: %v %v", r, ok)
	}
	if m.SessionCount() != 2 {
		t.Fatalf("RR session count = %d, want 2", m.SessionCount())
	}
}

func TestRRDoesNotReflectBackToOrigin(t *testing.T) {
	m := NewMesh()
	s1 := m.AddSpeaker(1, addr.MustParseIPv4("10.255.0.1"))
	m.AddSpeaker(2, addr.MustParseIPv4("10.255.0.2"))
	useReflector(m, 2)
	s1.Originate(route(rdA, "10.1.0.0/16", 1, 100, 1, rtA))
	m.Converge()
	if s1.RIBSize() != 0 {
		t.Fatalf("origin received its own route back: rib=%d", s1.RIBSize())
	}
}

func TestRRBypassesOwnFilter(t *testing.T) {
	m := NewMesh()
	s1 := m.AddSpeaker(1, addr.MustParseIPv4("10.255.0.1"))
	rr := m.AddSpeaker(2, addr.MustParseIPv4("10.255.0.2"))
	s3 := m.AddSpeaker(3, addr.MustParseIPv4("10.255.0.3"))
	useReflector(m, 2)
	rr.Filter = func(r *VPNRoute) bool { return false } // would drop everything
	s1.Originate(route(rdA, "10.1.0.0/16", 1, 100, 1, rtA))
	m.Converge()
	if _, ok := s3.Best(addr.VPNPrefix{RD: rdA, Prefix: addr.MustParsePrefix("10.1.0.0/16")}); !ok {
		t.Fatal("RR's import filter blocked reflection")
	}
}

func TestWithdraw(t *testing.T) {
	m := NewMesh()
	s1 := m.AddSpeaker(1, addr.MustParseIPv4("10.255.0.1"))
	s2 := m.AddSpeaker(2, addr.MustParseIPv4("10.255.0.2"))
	r := route(rdA, "10.1.0.0/16", 1, 100, 1, rtA)
	s1.Originate(r)
	m.Converge()
	if _, ok := s2.Best(r.Prefix); !ok {
		t.Fatal("route missing before withdraw")
	}
	if !s1.WithdrawLocal(r.Prefix) {
		t.Fatal("withdraw failed")
	}
	m.Converge()
	if _, ok := s2.Best(r.Prefix); ok {
		t.Fatal("route survived withdrawal")
	}
	if s1.WithdrawLocal(r.Prefix) {
		t.Fatal("double withdraw succeeded")
	}
}

func TestOriginateReplaces(t *testing.T) {
	m := NewMesh()
	s1 := m.AddSpeaker(1, addr.MustParseIPv4("10.255.0.1"))
	s2 := m.AddSpeaker(2, addr.MustParseIPv4("10.255.0.2"))
	s1.Originate(route(rdA, "10.1.0.0/16", 1, 100, 1, rtA))
	s1.Originate(route(rdA, "10.1.0.0/16", 1, 555, 1, rtA))
	m.Converge()
	r, _ := s2.Best(addr.VPNPrefix{RD: rdA, Prefix: addr.MustParsePrefix("10.1.0.0/16")})
	if r.Label != 555 {
		t.Fatalf("re-origination did not replace: label %d", r.Label)
	}
	if s2.RIBSize() != 1 {
		t.Fatalf("duplicate export: rib=%d", s2.RIBSize())
	}

	// Out of prefix order: 10.0/16 sorts before 10.1/16, so the exports no
	// longer ascend. 10.1/16 then sorts after the last export and must
	// still replace the one it equals, not go behind it; so must 10.0/16.
	s1.Originate(route(rdA, "10.0.0.0/16", 1, 200, 1, rtA))
	s1.Originate(route(rdA, "10.1.0.0/16", 1, 556, 1, rtA))
	s1.Originate(route(rdA, "10.2.0.0/16", 1, 300, 1, rtA))
	s1.Originate(route(rdA, "10.0.0.0/16", 1, 201, 1, rtA))
	m.Converge()
	var order []string
	for _, r := range s1.resolve(s1.exports) {
		order = append(order, r.Prefix.Prefix.String())
	}
	if got, want := strings.Join(order, " "), "10.1.0.0/16 10.0.0.0/16 10.2.0.0/16"; got != want {
		t.Errorf("exports %s, want %s: first-originated order", got, want)
	}
	for prefix, label := range map[string]packet.Label{"10.0.0.0/16": 201, "10.1.0.0/16": 556, "10.2.0.0/16": 300} {
		if r, ok := s2.Best(addr.VPNPrefix{RD: rdA, Prefix: addr.MustParsePrefix(prefix)}); !ok || r.Label != label {
			t.Errorf("%s: best %v, want label %d", prefix, r, label)
		}
	}
	if s2.RIBSize() != 3 {
		t.Errorf("duplicate export after an out-of-order originate: rib=%d, want 3", s2.RIBSize())
	}
}

func TestBestRoutesSorted(t *testing.T) {
	m := NewMesh()
	s1 := m.AddSpeaker(1, addr.MustParseIPv4("10.255.0.1"))
	s1.Originate(route(rdB, "10.2.0.0/16", 1, 2, 1, rtB))
	s1.Originate(route(rdA, "10.1.0.0/16", 1, 1, 1, rtA))
	m.Converge()
	rs := s1.BestRoutes()
	if len(rs) != 2 {
		t.Fatalf("BestRoutes len = %d", len(rs))
	}
	if rs[0].Prefix.String() > rs[1].Prefix.String() {
		t.Fatal("BestRoutes not sorted")
	}
}
