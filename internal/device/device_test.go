package device

import (
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/bgp"
	"mplsvpn/internal/ipsec"
	"mplsvpn/internal/mpls"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/vpn"
)

var (
	rdA = addr.RouteDistinguisher{Admin: 65000, Assigned: 1}
	rtA = addr.RouteTarget{Admin: 65000, Assigned: 1}
)

func ipPkt(dst string, dscp packet.DSCP) *packet.Packet {
	return &packet.Packet{
		IP: packet.IPv4Header{
			DSCP: dscp, TTL: 64, Protocol: packet.ProtoUDP,
			Src: addr.MustParseIPv4("10.1.0.1"),
			Dst: addr.MustParseIPv4(dst),
		},
		Payload: 100,
	}
}

// buildIngressPE wires a PE with one VRF holding a remote route and a
// transport FTN entry toward the egress PE's loopback.
func buildIngressPE() (*Router, *vpn.VRF) {
	pe := New(1, "PE1", PE, addr.MustParseIPv4("10.255.0.1"))
	pe.MapDSCPToEXP = true
	v := vpn.NewVRF("acme", 1, rdA, []addr.RouteTarget{rtA}, []addr.RouteTarget{rtA})
	pe.AddVRF(v)
	pe.BindAccess(100, "acme")
	return pe, v
}

// TestAccessBindingFollowsVRF: AccessVRF answers from the binding alone, so
// everything that changes either side of one must leave it pointing at the
// router's VRF of that name, or at nothing: a binding made before the VRF
// exists, the VRF removed and a new one added, a checkpoint restored into a
// rebuilt router, and the unbind.
func TestAccessBindingFollowsVRF(t *testing.T) {
	bound := func(r *Router) *vpn.VRF {
		v, ok := r.AccessVRF(100)
		if ok != (v != nil) {
			t.Fatalf("AccessVRF = %v, %v", v, ok)
		}
		return v
	}
	newVRF := func() *vpn.VRF {
		return vpn.NewVRF("acme", 1, rdA, []addr.RouteTarget{rtA}, []addr.RouteTarget{rtA})
	}
	pe := New(1, "PE1", PE, addr.MustParseIPv4("10.255.0.1"))
	pe.BindAccess(100, "acme")
	if v := bound(pe); v != nil {
		t.Fatalf("bound to %v before any VRF exists", v)
	}
	first := newVRF()
	pe.AddVRF(first)
	if bound(pe) != first {
		t.Fatal("a VRF added after the binding is not bound")
	}
	pe.RemoveVRF("acme")
	if v := bound(pe); v != nil {
		t.Fatalf("still bound to removed VRF %v", v)
	}
	second := newVRF()
	pe.AddVRF(second)
	if bound(pe) != second {
		t.Fatal("not rebound to the VRF that replaced the removed one")
	}

	var w snapshot.Writer
	pe.State(snapshot.Saver(&w))
	rebuilt := New(1, "PE1", PE, addr.MustParseIPv4("10.255.0.1"))
	if err := snapshot.Load(snapshot.NewReader(w.Data()), rebuilt.State); err != nil {
		t.Fatal(err)
	}
	if v := bound(rebuilt); v == nil || v != rebuilt.VRFs["acme"] {
		t.Fatalf("restored binding is %v, restored VRF %v", v, rebuilt.VRFs["acme"])
	}

	pe.UnbindAccess(100)
	if v := bound(pe); v != nil {
		t.Fatalf("bound to %v after the unbind", v)
	}
}

func TestPEPushesTwoLabels(t *testing.T) {
	pe, v := buildIngressPE()
	installRemote(v, "10.2.0.0/16", 2, "10.255.0.2", 500)
	// Transport LSP toward egress loopback via link 7 with label 100.
	pe.FTN.Bind(addr.HostPrefix(addr.MustParseIPv4("10.255.0.2")),
		mpls.NHLFE{Op: mpls.OpPush, OutLabel: 100, OutLink: 7})

	p := ipPkt("10.2.3.4", packet.DSCPEF)
	verdict := pe.Receive(0, p, 100)
	if verdict.Dropped() || verdict.Deliver {
		t.Fatalf("verdict = %+v", verdict)
	}
	if verdict.OutLink != 7 {
		t.Fatalf("out link = %d", verdict.OutLink)
	}
	if p.MPLS.Depth() != 2 {
		t.Fatalf("label stack depth = %d, want 2", p.MPLS.Depth())
	}
	if p.MPLS.At(0).Label != 100 || p.MPLS.At(1).Label != 500 {
		t.Fatalf("stack = %v", p.MPLS.String())
	}
	// §5 edge mapping: EF -> EXP 5 on both labels.
	if p.MPLS.At(0).EXP != 5 || p.MPLS.At(1).EXP != 5 {
		t.Fatalf("EXP not mapped: %v", p.MPLS.String())
	}
}

func TestPEWithoutEXPMapping(t *testing.T) {
	pe, v := buildIngressPE()
	pe.MapDSCPToEXP = false
	installRemote(v, "10.2.0.0/16", 2, "10.255.0.2", 500)
	pe.FTN.Bind(addr.HostPrefix(addr.MustParseIPv4("10.255.0.2")),
		mpls.NHLFE{Op: mpls.OpPush, OutLabel: 100, OutLink: 7})
	p := ipPkt("10.2.3.4", packet.DSCPEF)
	pe.Receive(0, p, 100)
	if p.MPLS.At(0).EXP != 0 {
		t.Fatalf("EXP mapped despite ablation: %v", p.MPLS.String())
	}
}

func TestPHPAdjacentPEs(t *testing.T) {
	// When PEs are IGP-adjacent the transport label is implicit null: only
	// the VPN label goes on the wire.
	pe, v := buildIngressPE()
	installRemote(v, "10.2.0.0/16", 2, "10.255.0.2", 500)
	pe.FTN.Bind(addr.HostPrefix(addr.MustParseIPv4("10.255.0.2")),
		mpls.NHLFE{Op: mpls.OpPush, OutLabel: packet.LabelImplicitNull, OutLink: 7})
	p := ipPkt("10.2.3.4", packet.DSCPBestEffort)
	verdict := pe.Receive(0, p, 100)
	if verdict.Dropped() || p.MPLS.Depth() != 1 || p.MPLS.At(0).Label != 500 {
		t.Fatalf("verdict=%+v stack=%v", verdict, p.MPLS.String())
	}
}

func TestTEOverride(t *testing.T) {
	pe, v := buildIngressPE()
	installRemote(v, "10.2.0.0/16", 2, "10.255.0.2", 500)
	pe.FTN.Bind(addr.HostPrefix(addr.MustParseIPv4("10.255.0.2")),
		mpls.NHLFE{Op: mpls.OpPush, OutLabel: 100, OutLink: 7})
	// Voice rides a pinned TE LSP out link 9 with label 777.
	pe.SetTE(TEKey{EgressPE: 2, Class: qos.ClassVoice}, mpls.NHLFE{Op: mpls.OpPush, OutLabel: 777, OutLink: 9})

	voice := ipPkt("10.2.3.4", packet.DSCPEF)
	verdict := pe.Receive(0, voice, 100)
	if verdict.OutLink != 9 || voice.MPLS.At(0).Label != 777 {
		t.Fatalf("TE override not used: out=%d stack=%v", verdict.OutLink, voice.MPLS.String())
	}
	// Best effort still takes the LDP LSP.
	be := ipPkt("10.2.3.4", packet.DSCPBestEffort)
	verdict = pe.Receive(0, be, 100)
	if verdict.OutLink != 7 || be.MPLS.At(0).Label != 100 {
		t.Fatalf("BE hijacked by TE LSP: out=%d stack=%v", verdict.OutLink, be.MPLS.String())
	}
}

func TestTEWildcardClass(t *testing.T) {
	pe, v := buildIngressPE()
	installRemote(v, "10.2.0.0/16", 2, "10.255.0.2", 500)
	pe.SetTE(TEKey{EgressPE: 2, Class: -1}, mpls.NHLFE{Op: mpls.OpPush, OutLabel: 888, OutLink: 4})
	p := ipPkt("10.2.3.4", packet.DSCPAF21)
	verdict := pe.Receive(0, p, 100)
	if verdict.OutLink != 4 || p.MPLS.At(0).Label != 888 {
		t.Fatalf("wildcard TE not used: %+v %v", verdict, p.MPLS.String())
	}
}

func TestVRFIsolationNoRoute(t *testing.T) {
	pe, _ := buildIngressPE()
	// Destination exists nowhere in VRF acme.
	p := ipPkt("10.99.0.1", packet.DSCPBestEffort)
	verdict := pe.Receive(0, p, 100)
	if verdict.Drop != packet.DropNoRoute {
		t.Fatalf("packet escaped its VRF: %+v", verdict)
	}
	if pe.DroppedNoRoute != 1 {
		t.Fatalf("DroppedNoRoute = %d", pe.DroppedNoRoute)
	}
}

func TestIntraPELocalDelivery(t *testing.T) {
	pe, v := buildIngressPE()
	site := &vpn.Site{Name: "branch", VPN: "acme", PE: 1,
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.3.0.0/16")}}
	v.AttachSite(site, func(addr.Prefix) packet.Label { return 600 }, pe.Loopback)
	pe.BindSiteAccess("acme", "branch", 55)
	p := ipPkt("10.3.1.1", packet.DSCPBestEffort)
	verdict := pe.Receive(0, p, 100)
	if verdict.Dropped() || verdict.OutLink != 55 {
		t.Fatalf("intra-PE hairpin failed: %+v", verdict)
	}
	if p.MPLS.Depth() != 0 {
		t.Fatal("intra-PE traffic was labelled")
	}
}

func TestEgressPEPopsToAccessLink(t *testing.T) {
	pe := New(2, "PE2", PE, addr.MustParseIPv4("10.255.0.2"))
	// VPN label 500 delivers out access link 42 (to the site's CE).
	pe.LFIB.BindILM(500, mpls.NHLFE{Op: mpls.OpPop, OutLink: 42})
	p := ipPkt("10.2.3.4", packet.DSCPBestEffort)
	p.MPLS = packet.StackOf(packet.LabelStackEntry{Label: 500, EXP: 5, TTL: 60})
	verdict := pe.Receive(0, p, 3)
	if verdict.Dropped() || verdict.OutLink != 42 {
		t.Fatalf("egress verdict = %+v", verdict)
	}
	if p.MPLS.Depth() != 0 {
		t.Fatal("VPN label not popped")
	}
}

func TestPRouterSwaps(t *testing.T) {
	p := New(5, "P1", P, addr.MustParseIPv4("10.255.0.5"))
	p.LFIB.BindILM(100, mpls.NHLFE{Op: mpls.OpSwap, OutLabel: 101, OutLink: 3})
	pkt := ipPkt("10.2.3.4", packet.DSCPBestEffort)
	pkt.MPLS = packet.StackOf(packet.LabelStackEntry{Label: 100, EXP: 2, TTL: 60})
	verdict := p.Receive(0, pkt, 1)
	if verdict.Dropped() || verdict.OutLink != 3 || pkt.MPLS.At(0).Label != 101 {
		t.Fatalf("P swap failed: %+v %v", verdict, pkt.MPLS.String())
	}
	if p.LabelLookups != 1 || p.IPLookups != 0 {
		t.Fatalf("core router inspected IP: label=%d ip=%d", p.LabelLookups, p.IPLookups)
	}
}

func TestCEClassifierPolices(t *testing.T) {
	ce := New(9, "CE1", CE, addr.MustParseIPv4("10.255.0.9"))
	ce.Classifier = qos.VoiceDataPolicy(5060, 100) // tiny contract
	ce.IPTable.Insert(addr.Prefix{}, 1)            // default route
	var dropped int
	for i := 0; i < 30; i++ {
		p := ipPkt("10.2.3.4", 0)
		p.L4.DstPort = 5060
		p.Payload = 1000
		if v := ce.Receive(0, p, -1); v.Dropped() {
			dropped++
		}
	}
	if dropped == 0 || ce.DroppedPolicer != dropped {
		t.Fatalf("policer drops = %d (counter %d)", dropped, ce.DroppedPolicer)
	}
}

func TestCEMarksDSCP(t *testing.T) {
	ce := New(9, "CE1", CE, addr.MustParseIPv4("10.255.0.9"))
	ce.Classifier = qos.VoiceDataPolicy(5060, 1e9)
	ce.IPTable.Insert(addr.Prefix{}, 1)
	p := ipPkt("10.2.3.4", 0)
	p.L4.DstPort = 5060
	if v := ce.Receive(0, p, -1); v.Dropped() {
		t.Fatal(v.Drop)
	}
	if p.IP.DSCP != packet.DSCPEF {
		t.Fatalf("CE did not mark voice EF: %v", p.IP.DSCP)
	}
}

func TestLocalPrefixDelivery(t *testing.T) {
	ce := New(9, "CE2", CE, addr.MustParseIPv4("10.255.0.9"))
	ce.LocalPrefixes = addr.NewTable[bool]()
	ce.LocalPrefixes.Insert(addr.MustParsePrefix("10.2.0.0/16"), true)
	p := ipPkt("10.2.3.4", packet.DSCPBestEffort)
	verdict := ce.Receive(0, p, 5)
	if !verdict.Deliver || ce.Delivered != 1 {
		t.Fatalf("local delivery failed: %+v", verdict)
	}
}

func TestTTLExpiryDrops(t *testing.T) {
	r := New(1, "R", P, addr.MustParseIPv4("10.255.0.1"))
	p := ipPkt("10.2.3.4", 0)
	p.IP.TTL = 1
	if v := r.Receive(0, p, 2); v.Drop != packet.DropTTLExpired {
		t.Fatalf("TTL-1 packet: %+v", v)
	}
	if r.DroppedTTL != 1 {
		t.Fatalf("DroppedTTL = %d", r.DroppedTTL)
	}
}

func TestIPSecGatewayRoundTrip(t *testing.T) {
	lbA := addr.MustParseIPv4("10.255.0.10")
	lbB := addr.MustParseIPv4("10.255.0.20")
	gwA := New(10, "GWA", CE, lbA)
	gwB := New(20, "GWB", CE, lbB)

	sa := ipsec.NewSA(77, lbA, lbB)
	gwA.EncapTunnels = addr.NewTable[[]*ipsec.SA]()
	gwA.EncapTunnels.Insert(addr.MustParsePrefix("10.2.0.0/16"), []*ipsec.SA{sa})
	gwA.IPTable.Insert(addr.Prefix{}, 3) // default toward backbone
	gwB.DecapSAs[77] = ipsec.NewSA(77, lbA, lbB)
	gwB.LocalPrefixes = addr.NewTable[bool]()
	gwB.LocalPrefixes.Insert(addr.MustParsePrefix("10.2.0.0/16"), true)

	p := ipPkt("10.2.3.4", packet.DSCPEF)
	v := gwA.Receive(0, p, -1)
	if v.Dropped() || v.OutLink != 3 || v.Delay <= 0 {
		t.Fatalf("encap verdict = %+v", v)
	}
	if p.IP.DSCP != packet.DSCPBestEffort {
		t.Fatal("outer DSCP leaked the inner marking (ToS copy should be off)")
	}
	if p.IP.Dst != lbB {
		t.Fatalf("outer dst = %v", p.IP.Dst)
	}
	// Arrives at gateway B.
	v = gwB.Receive(0, p, 8)
	if v.Dropped() || !v.Deliver {
		t.Fatalf("decap verdict = %+v", v)
	}
	if p.IP.DSCP != packet.DSCPEF || p.IP.Dst != addr.MustParseIPv4("10.2.3.4") {
		t.Fatalf("inner not restored: %+v", p.IP)
	}
}

// installRemote adds a BGP-learned route into a VRF.
func installRemote(v *vpn.VRF, prefix string, egressPE int, nextHop string, label uint32) {
	v.ImportRemote([]*bgp.VPNRoute{{
		Prefix:   addr.VPNPrefix{RD: rdA, Prefix: addr.MustParsePrefix(prefix)},
		NextHop:  addr.MustParseIPv4(nextHop),
		Label:    packet.Label(label),
		RTs:      []addr.RouteTarget{rtA},
		OriginPE: topo.NodeID(egressPE),
	}})
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{Host: "host", CE: "ce", PE: "pe", P: "p"} {
		if k.String() != want {
			t.Fatalf("Kind %d = %q", k, k.String())
		}
	}
}

func TestNonPHPRecirculation(t *testing.T) {
	// Without PHP: the egress PE pops the transport label locally, then
	// recirculates to process the VPN label underneath.
	pe := New(2, "PE2", PE, addr.MustParseIPv4("10.255.0.2"))
	pe.LFIB.BindILM(100, mpls.NHLFE{Op: mpls.OpPop, OutLink: -1}) // transport, UHP
	pe.LFIB.BindILM(500, mpls.NHLFE{Op: mpls.OpPop, OutLink: 42}) // VPN label
	p := ipPkt("10.2.3.4", packet.DSCPBestEffort)
	p.MPLS = packet.StackOf(
		packet.LabelStackEntry{Label: 100, EXP: 0, TTL: 60},
		packet.LabelStackEntry{Label: 500, EXP: 0, TTL: 60},
	)
	v := pe.Receive(0, p, 3)
	if v.Dropped() || v.OutLink != 42 {
		t.Fatalf("UHP recirculation verdict = %+v", v)
	}
	if p.MPLS.Depth() != 0 {
		t.Fatal("stack not fully consumed")
	}
}

func TestUHPTransitContinuesByIP(t *testing.T) {
	// A router that pops the only label but is not the IP destination
	// keeps forwarding by IP (hop-by-hop LSP egress without PHP).
	r := New(5, "R", PE, addr.MustParseIPv4("10.255.0.5"))
	r.LFIB.BindILM(100, mpls.NHLFE{Op: mpls.OpPop, OutLink: -1})
	r.IPTable.Insert(addr.MustParsePrefix("10.2.0.0/16"), 7)
	p := ipPkt("10.2.3.4", 0)
	p.MPLS = packet.StackOf(packet.LabelStackEntry{Label: 100, TTL: 60})
	v := r.Receive(0, p, 1)
	if v.Dropped() || v.OutLink != 7 {
		t.Fatalf("post-pop IP forwarding verdict = %+v", v)
	}
}

func TestLabeledBlackholeDrops(t *testing.T) {
	r := New(5, "R", P, addr.MustParseIPv4("10.255.0.5"))
	p := ipPkt("10.2.3.4", 0)
	p.MPLS = packet.StackOf(packet.LabelStackEntry{Label: 9999, TTL: 60})
	if v := r.Receive(0, p, 1); v.Drop != packet.DropNoLabelBinding {
		t.Fatalf("unbound label: %+v", v)
	}
	// The cause is attributed to the new counter, not TTL.
	if r.DroppedNoLabel != 1 || r.DroppedTTL != 0 {
		t.Fatalf("label drop misattributed: noLabel=%d ttl=%d", r.DroppedNoLabel, r.DroppedTTL)
	}
}

func TestESPUnknownSPIDrops(t *testing.T) {
	gw := New(10, "GW", CE, addr.MustParseIPv4("10.255.0.10"))
	p := ipPkt("10.2.3.4", 0)
	p.IP.Dst = gw.Loopback
	p.ESP = &packet.ESPInfo{SPI: 12345}
	if v := gw.Receive(0, p, 3); v.Drop != packet.DropNoSA {
		t.Fatalf("unknown SPI: %+v", v)
	}
}

func TestESPReplayDropSurfaces(t *testing.T) {
	lbA := addr.MustParseIPv4("10.255.0.10")
	lbB := addr.MustParseIPv4("10.255.0.20")
	gwB := New(20, "GWB", CE, lbB)
	gwB.DecapSAs[77] = ipsec.NewSA(77, lbA, lbB)
	gwB.LocalPrefixes = addr.NewTable[bool]()
	gwB.LocalPrefixes.Insert(addr.MustParsePrefix("10.2.0.0/16"), true)
	out := ipsec.NewSA(77, lbA, lbB)

	p := ipPkt("10.2.3.4", 0)
	out.Encapsulate(p)
	dup := p.Clone()
	if v := gwB.Receive(0, p, 8); v.Dropped() {
		t.Fatal(v.Drop)
	}
	if v := gwB.Receive(0, dup, 8); v.Drop != packet.DropReplay {
		t.Fatalf("replay: %+v", v)
	}
}

func TestNoRouteAnywhereDrops(t *testing.T) {
	r := New(5, "R", P, addr.MustParseIPv4("10.255.0.5"))
	p := ipPkt("99.99.99.99", 0)
	if v := r.Receive(0, p, 1); v.Drop != packet.DropNoRoute {
		t.Fatalf("routeless packet: %+v", v)
	}
	if r.DroppedNoRoute != 1 {
		t.Fatalf("DroppedNoRoute = %d", r.DroppedNoRoute)
	}
}
