package core

import (
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
	"mplsvpn/internal/vpn"
)

// buildSmall builds PE1 - P1 - P2 - PE2 with 10 Mb/s core links.
func buildSmall(cfg Config) *Backbone {
	b := NewBackbone(cfg)
	b.AddPE("PE1")
	b.AddP("P1")
	b.AddP("P2")
	b.AddPE("PE2")
	b.Link("PE1", "P1", 10e6, sim.Millisecond, 1)
	b.Link("P1", "P2", 10e6, sim.Millisecond, 1)
	b.Link("P2", "PE2", 10e6, sim.Millisecond, 1)
	b.BuildProvider()
	return b
}

// twoSites provisions VPN "acme" with a site at each PE.
func twoSites(b *Backbone) {
	b.DefineVPN("acme")
	b.AddSite(SiteSpec{VPN: "acme", Name: "hq", PE: "PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.AddSite(SiteSpec{VPN: "acme", Name: "branch", PE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	b.ConvergeVPNs()
}

func TestEndToEndVPNDelivery(t *testing.T) {
	b := buildSmall(Config{Seed: 1})
	twoSites(b)
	f, err := b.FlowBetween("f", "hq", "branch", 5060)
	if err != nil {
		t.Fatal(err)
	}
	trafgen.CBR(b.Net, f, 160, 20*sim.Millisecond, 0, sim.Second)
	b.Net.Run()
	if f.Stats.Sent == 0 || f.Stats.Delivered != f.Stats.Sent {
		t.Fatalf("sent=%d delivered=%d", f.Stats.Sent, f.Stats.Delivered)
	}
	// Path: ce -> PE1 -> P1 -> P2 -> PE2 -> ce = 5 links ≥ 5ms propagation.
	if p50 := f.Stats.Latency.Percentile(50); p50 < 5 || p50 > 10 {
		t.Fatalf("p50 latency = %v ms", p50)
	}
	if b.IsolationViolations != 0 {
		t.Fatalf("isolation violations: %d", b.IsolationViolations)
	}
}

func TestPacketsAreLabeledInCore(t *testing.T) {
	b := buildSmall(Config{Seed: 1})
	twoSites(b)
	f, _ := b.FlowBetween("f", "hq", "branch", 5060)
	trafgen.CBR(b.Net, f, 160, 20*sim.Millisecond, 0, 100*sim.Millisecond)
	b.Net.Run()
	// Core routers must have label-switched, not IP-routed.
	p1 := b.Router("P1")
	if p1.LabelLookups == 0 {
		t.Fatal("core router never label-switched")
	}
	if p1.IPLookups != 0 {
		t.Fatalf("core router did %d IP lookups on VPN traffic", p1.IPLookups)
	}
}

func TestOverlappingAddressSpaces(t *testing.T) {
	// Both VPNs use 10.1/16 and 10.2/16. Traffic in each stays in each.
	b := buildSmall(Config{Seed: 2})
	b.DefineVPN("alpha")
	b.DefineVPN("beta")
	for _, v := range []string{"alpha", "beta"} {
		b.AddSite(SiteSpec{VPN: v, Name: v + "-west", PE: "PE1",
			Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
		b.AddSite(SiteSpec{VPN: v, Name: v + "-east", PE: "PE2",
			Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	}
	b.ConvergeVPNs()

	fa, _ := b.FlowBetween("fa", "alpha-west", "alpha-east", 80)
	fb, _ := b.FlowBetween("fb", "beta-west", "beta-east", 81)
	trafgen.CBR(b.Net, fa, 500, 10*sim.Millisecond, 0, sim.Second)
	trafgen.CBR(b.Net, fb, 500, 10*sim.Millisecond, 0, sim.Second)
	b.Net.Run()

	if fa.Stats.Delivered != fa.Stats.Sent || fb.Stats.Delivered != fb.Stats.Sent {
		t.Fatalf("deliveries: a=%d/%d b=%d/%d",
			fa.Stats.Delivered, fa.Stats.Sent, fb.Stats.Delivered, fb.Stats.Sent)
	}
	if b.IsolationViolations != 0 {
		t.Fatalf("isolation violations: %d", b.IsolationViolations)
	}
}

func TestVRFStateOnlyWhereNeeded(t *testing.T) {
	// Automatic route filtering: a PE serving only VPN alpha retains no
	// beta routes.
	b := buildSmall(Config{Seed: 3})
	b.DefineVPN("alpha")
	b.DefineVPN("beta")
	b.AddSite(SiteSpec{VPN: "alpha", Name: "a1", PE: "PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.AddSite(SiteSpec{VPN: "beta", Name: "b1", PE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.ConvergeVPNs()
	sp1, _ := b.BGP.Speaker(b.mustNode("PE1"))
	if sp1.Retained != 0 {
		t.Fatalf("PE1 retained %d foreign routes", sp1.Retained)
	}
}

func TestIntraPESites(t *testing.T) {
	b := buildSmall(Config{Seed: 4})
	b.DefineVPN("acme")
	b.AddSite(SiteSpec{VPN: "acme", Name: "s1", PE: "PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.AddSite(SiteSpec{VPN: "acme", Name: "s2", PE: "PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	b.ConvergeVPNs()
	f, _ := b.FlowBetween("f", "s1", "s2", 80)
	trafgen.CBR(b.Net, f, 200, 10*sim.Millisecond, 0, 200*sim.Millisecond)
	b.Net.Run()
	if f.Stats.Delivered != f.Stats.Sent {
		t.Fatalf("intra-PE delivery %d/%d", f.Stats.Delivered, f.Stats.Sent)
	}
}

func TestExtranet(t *testing.T) {
	b := buildSmall(Config{Seed: 5})
	b.DefineVPN("acme")
	b.DefineVPN("partner")
	// Extranet VRFs: acme's sites import partner's RT as well.
	b.DefineVPNWithRTs("bridge",
		[]addr.RouteTarget{b.RTOf("acme"), b.RTOf("partner")},
		[]addr.RouteTarget{b.RTOf("acme"), b.RTOf("partner")})
	b.AddSite(SiteSpec{VPN: "bridge", Name: "shared", PE: "PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("172.16.0.0/16")}})
	b.AddSite(SiteSpec{VPN: "acme", Name: "acme-1", PE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.AddSite(SiteSpec{VPN: "partner", Name: "partner-1", PE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	b.ConvergeVPNs()

	// Both customers reach the shared extranet site.
	fa, _ := b.FlowBetween("fa", "acme-1", "shared", 80)
	fp, _ := b.FlowBetween("fp", "partner-1", "shared", 81)
	trafgen.CBR(b.Net, fa, 200, 10*sim.Millisecond, 0, 200*sim.Millisecond)
	trafgen.CBR(b.Net, fp, 200, 10*sim.Millisecond, 0, 200*sim.Millisecond)
	b.Net.Run()
	if fa.Stats.Delivered == 0 || fp.Stats.Delivered == 0 {
		t.Fatalf("extranet unreachable: %d, %d", fa.Stats.Delivered, fp.Stats.Delivered)
	}
	// But acme cannot reach partner directly.
	cross, _ := b.FlowBetween("cross", "acme-1", "partner-1", 82)
	sent0 := b.Net.Dropped
	trafgen.CBR(b.Net, cross, 200, 10*sim.Millisecond, 300*sim.Millisecond, 400*sim.Millisecond)
	b.Net.Run()
	if cross.Stats.Delivered != 0 {
		t.Fatal("extranet leaked a direct acme->partner path")
	}
	if b.Net.Dropped <= sent0 {
		t.Fatal("cross-VPN packets neither delivered nor dropped")
	}
}

func TestCrossVPNTrafficDropped(t *testing.T) {
	b := buildSmall(Config{Seed: 6})
	b.DefineVPN("alpha")
	b.DefineVPN("beta")
	b.AddSite(SiteSpec{VPN: "alpha", Name: "a1", PE: "PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.AddSite(SiteSpec{VPN: "beta", Name: "b1", PE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	b.ConvergeVPNs()
	// a1 addresses b1's prefix: no route in alpha's VRF.
	f, _ := b.FlowBetween("f", "a1", "b1", 80)
	trafgen.CBR(b.Net, f, 200, 10*sim.Millisecond, 0, 100*sim.Millisecond)
	b.Net.Run()
	if f.Stats.Delivered != 0 {
		t.Fatal("cross-VPN traffic delivered")
	}
	if b.IsolationViolations != 0 {
		t.Fatalf("violations = %d", b.IsolationViolations)
	}
}

func TestRemoveSiteWithdraws(t *testing.T) {
	b := buildSmall(Config{Seed: 7})
	twoSites(b)
	f, err := b.FlowBetween("f", "hq", "branch", 80)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RemoveSite("branch"); err != nil {
		t.Fatal(err)
	}
	b.ConvergeVPNs()
	trafgen.CBR(b.Net, f, 200, 10*sim.Millisecond, 0, 100*sim.Millisecond)
	b.Net.Run()
	if f.Stats.Delivered != 0 {
		t.Fatal("traffic delivered to removed site")
	}
	if len(b.Registry.Members("acme")) != 1 {
		t.Fatal("membership not updated")
	}
}

func TestDiscoverySeparation(t *testing.T) {
	b := buildSmall(Config{Seed: 8})
	b.DefineVPN("alpha")
	b.DefineVPN("beta")
	var alphaSeen []string
	b.Registry.Subscribe("alpha", func(e vpn.Event) { alphaSeen = append(alphaSeen, e.Site.Name) })
	b.AddSite(SiteSpec{VPN: "alpha", Name: "a1", PE: "PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.AddSite(SiteSpec{VPN: "beta", Name: "b1", PE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	if len(alphaSeen) != 1 || alphaSeen[0] != "a1" {
		t.Fatalf("alpha discovery saw %v", alphaSeen)
	}
}

func TestQoSProtectsVoiceUnderCongestion(t *testing.T) {
	// Mini-E2: a 10 Mb/s bottleneck loaded with ~14 Mb/s of bulk + 1 Mb/s
	// of voice. With the hybrid scheduler, voice survives; with FIFO, it
	// shares the pain.
	run := func(sched SchedulerKind) (voiceP99 float64, voiceLoss float64) {
		b := buildSmall(Config{Seed: 9, Scheduler: sched})
		twoSites(b)
		voice, _ := b.FlowBetween("voice", "hq", "branch", 5060)
		voice.DSCP = packet.DSCPEF
		bulk, _ := b.FlowBetween("bulk", "hq", "branch", 80)
		bulk.DSCP = packet.DSCPBestEffort
		// Voice: 160B @ 10ms ≈ 150 kb/s. Bulk: 1400B @ 0.8ms ≈ 14.6 Mb/s.
		trafgen.CBR(b.Net, voice, 160, 10*sim.Millisecond, 0, 2*sim.Second)
		trafgen.CBR(b.Net, bulk, 1400, 800*sim.Microsecond, 0, 2*sim.Second)
		b.Net.RunUntil(3 * sim.Second)
		return voice.Stats.Latency.Percentile(99), voice.Stats.LossRate()
	}
	fifoP99, fifoLoss := run(SchedFIFO)
	hybridP99, hybridLoss := run(SchedHybrid)
	if hybridP99 >= fifoP99 {
		t.Fatalf("hybrid voice p99 %.2fms not better than FIFO %.2fms", hybridP99, fifoP99)
	}
	if hybridLoss > 0.001 {
		t.Fatalf("hybrid voice loss = %v", hybridLoss)
	}
	if fifoLoss == 0 && fifoP99 < 2*hybridP99 {
		t.Fatalf("FIFO baseline suspiciously healthy: p99=%v loss=%v", fifoP99, fifoLoss)
	}
}

func TestEXPMappingEndToEnd(t *testing.T) {
	// E7: the DSCP marked at the CE must be restored at the far CE after
	// the MPLS transit, for every class.
	b := buildSmall(Config{Seed: 10})
	twoSites(b)
	got := map[packet.DSCP]int{}
	b.OnDeliver(func(_ topo.NodeID, p *packet.Packet) { got[p.IP.DSCP]++ })
	classes := []packet.DSCP{
		packet.DSCPEF, packet.DSCPAF41, packet.DSCPAF21,
		packet.DSCPBestEffort, packet.DSCPCS1,
	}
	for i, d := range classes {
		f, _ := b.FlowBetween(d.String(), "hq", "branch", uint16(6000+i))
		f.DSCP = d
		trafgen.CBR(b.Net, f, 200, 50*sim.Millisecond, 0, 500*sim.Millisecond)
	}
	b.Net.Run()
	for _, d := range classes {
		if got[d] == 0 {
			t.Fatalf("class %v lost its marking end to end (got %v)", d, got)
		}
	}
}

// longPath is PE1-X-Y-PE2 on a fish backbone: the shortest path that
// avoids M, the short way round.
func longPath(b *Backbone) topo.Path {
	avoidM := topo.Constraints{ExcludeNodes: map[topo.NodeID]bool{b.mustNode("M"): true}}
	p, _ := b.G.CSPF(b.mustNode("PE1"), avoidM).PathTo(b.G, b.mustNode("PE2"))
	return p
}

func TestTELSPSteersTraffic(t *testing.T) {
	// Fish: PE1 -> M -> PE2 (short) vs PE1 -> X -> Y -> PE2 (long).
	b := NewBackbone(Config{Seed: 11})
	b.AddPE("PE1")
	b.AddP("M")
	b.AddP("X")
	b.AddP("Y")
	b.AddPE("PE2")
	b.Link("PE1", "M", 10e6, sim.Millisecond, 1)
	b.Link("M", "PE2", 10e6, sim.Millisecond, 1)
	b.Link("PE1", "X", 10e6, sim.Millisecond, 1)
	b.Link("X", "Y", 10e6, sim.Millisecond, 1)
	b.Link("Y", "PE2", 10e6, sim.Millisecond, 1)
	b.BuildProvider()
	twoSites(b)

	// Pin all traffic to the long path.
	long := longPath(b)
	if _, err := b.SetupTELSP("pin", "PE1", "PE2", 1e6, -1, rsvp.SetupOptions{Explicit: &long}); err != nil {
		t.Fatal(err)
	}
	f, _ := b.FlowBetween("f", "hq", "branch", 80)
	trafgen.CBR(b.Net, f, 200, 10*sim.Millisecond, 0, 200*sim.Millisecond)
	b.Net.Run()
	if f.Stats.Delivered != f.Stats.Sent {
		t.Fatalf("TE path lost traffic: %d/%d", f.Stats.Delivered, f.Stats.Sent)
	}
	// The long path transits X and Y.
	if b.Router("X").LabelLookups == 0 || b.Router("Y").LabelLookups == 0 {
		t.Fatal("traffic did not take the TE path")
	}
	if b.Router("M").LabelLookups != 0 {
		t.Fatal("traffic leaked onto the shortest path")
	}
}

func TestPlainIPWithIPSecMesh(t *testing.T) {
	b := buildSmall(Config{Seed: 12, PlainIP: true})
	b.DefineVPN("acme")
	b.AddSite(SiteSpec{VPN: "acme", Name: "hq", PE: "PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.AddSite(SiteSpec{VPN: "acme", Name: "branch", PE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	if n := b.BuildIPSecMesh("acme", false); n != 1 {
		t.Fatalf("tunnels = %d", n)
	}
	var sawESPInCore, sawBEDSCPInCore bool
	// Observe what P1 sees: encrypted packets with best-effort outer DSCP.
	f, _ := b.FlowBetween("f", "hq", "branch", 5060)
	f.DSCP = packet.DSCPEF
	trafgen.CBR(b.Net, f, 160, 10*sim.Millisecond, 0, 500*sim.Millisecond)
	// Snoop via a wrapper on delivery at the remote CE plus core counters.
	b.Net.OnDrop = func(_ topo.NodeID, p *packet.Packet, reason packet.DropReason) {}
	b.Net.Run()
	_ = sawESPInCore
	_ = sawBEDSCPInCore
	if f.Stats.Delivered != f.Stats.Sent || f.Stats.Sent == 0 {
		t.Fatalf("ipsec mesh delivery %d/%d", f.Stats.Delivered, f.Stats.Sent)
	}
	// The DSCP is restored at decap (delivered packets show EF again).
	b.OnDeliver(func(_ topo.NodeID, p *packet.Packet) {
		if p.IP.DSCP != packet.DSCPEF {
			t.Fatalf("inner DSCP lost: %v", p.IP.DSCP)
		}
	})
}

func TestWithdrawnRoutesLeaveNoStaleState(t *testing.T) {
	b := buildSmall(Config{Seed: 160})
	twoSites(b)
	if err := b.RemoveSite("branch"); err != nil {
		t.Fatal(err)
	}
	b.ConvergeVPNs()
	// The ingress VRF itself must now miss — a clean "no route in VRF",
	// not a push onto a dead label.
	pe1 := b.Router("PE1")
	vrf := pe1.VRFs["acme"]
	if _, ok := vrf.Lookup(addr.MustParseIPv4("10.2.0.1")); ok {
		t.Fatal("withdrawn route still in remote VRF")
	}
	// And the drop is attributed at the ingress PE.
	f, err := b.FlowBetween("f", "hq", "hq", 80)
	if err != nil {
		t.Fatal(err)
	}
	f.Dst = addr.MustParseIPv4("10.2.0.1") // the withdrawn prefix
	b.ReregisterFlow(f)
	trafgen.CBR(b.Net, f, 200, 10*sim.Millisecond, 0, 100*sim.Millisecond)
	before := pe1.DroppedNoRoute
	b.Net.Run()
	if pe1.DroppedNoRoute <= before {
		t.Fatal("drops not at the ingress VRF")
	}
}

// TestAddSiteRefusesBeforeMutating: an attachment PE that runs no BGP
// speaker (here a P router, as primary and as backup) is refused before
// the site's CE, access links or site entry exist.
func TestAddSiteRefusesBeforeMutating(t *testing.T) {
	b := NewBackbone(Config{Seed: 1})
	b.AddPE("PE1")
	b.AddP("P1")
	b.AddPE("PE2")
	b.Link("PE1", "P1", 10e6, sim.Millisecond, 1)
	b.Link("P1", "PE2", 10e6, sim.Millisecond, 1)
	b.BuildProvider()
	b.DefineVPN("v")
	links := b.G.NumLinks()
	for _, spec := range []SiteSpec{{PE: "P1"}, {PE: "PE1", BackupPE: "P1"}} {
		spec.VPN, spec.Name = "v", "s"
		spec.Prefixes = []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}
		err := func() (err error) {
			defer func() { err, _ = recover().(error) }()
			b.AddSite(spec)
			return nil
		}()
		if code, ok := CodeOf(err); !ok || code != ProvNoBGPSpeaker {
			t.Fatalf("PE %s backup %q: AddSite = %v, want %v", spec.PE, spec.BackupPE, err, ProvNoBGPSpeaker)
		}
		if n := len(b.SiteNames()); n != 0 || b.G.NumLinks() != links {
			t.Fatalf("PE %s backup %q: refusal left %d sites and %d links, want 0 and %d",
				spec.PE, spec.BackupPE, n, b.G.NumLinks(), links)
		}
	}
}
