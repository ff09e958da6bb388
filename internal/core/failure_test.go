package core

import (
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/trafgen"
)

const (
	qosVoice = qos.ClassVoice
	qosBE    = qos.ClassBestEffort
)

// ringBackbone builds PE1 - P1 - PE2 plus a protection path PE1 - P2 - PE2.
func ringBackbone(cfg Config) *Backbone {
	b := NewBackbone(cfg)
	b.AddPE("PE1")
	b.AddP("P1")
	b.AddP("P2")
	b.AddPE("PE2")
	b.Link("PE1", "P1", 100e6, sim.Millisecond, 1)
	b.Link("P1", "PE2", 100e6, sim.Millisecond, 1)
	b.Link("PE1", "P2", 100e6, sim.Millisecond, 5)
	b.Link("P2", "PE2", 100e6, sim.Millisecond, 5)
	b.BuildProvider()
	return b
}

func TestLinkFailureReroutesVPNTraffic(t *testing.T) {
	b := ringBackbone(Config{Seed: 81})
	twoSites(b)
	f, _ := b.FlowBetween("f", "hq", "branch", 80)
	// Continuous traffic across the failure at t=1s (instant detection).
	trafgen.CBR(b.Net, f, 200, 10*sim.Millisecond, 0, 3*sim.Second)
	b.At(sim.Second, func() { b.FailLink("PE1", "P1", 0) })
	b.Net.Run()

	// Everything still delivers (no loss window with instant detection —
	// only packets already queued into the dead port can die).
	if f.Stats.LossRate() > 0.01 {
		t.Fatalf("loss after instant reroute = %v", f.Stats.LossRate())
	}
	// And the protection path carried the tail of the flow.
	if b.Router("P2").LabelLookups == 0 {
		t.Fatal("protection path unused after failure")
	}
}

func TestLinkFailureLossWindowScalesWithDetection(t *testing.T) {
	lossAt := func(detect sim.Time) float64 {
		b := ringBackbone(Config{Seed: 82})
		twoSites(b)
		f, _ := b.FlowBetween("f", "hq", "branch", 80)
		trafgen.CBR(b.Net, f, 200, 5*sim.Millisecond, 0, 3*sim.Second)
		b.At(sim.Second, func() { b.FailLink("PE1", "P1", detect) })
		b.Net.Run()
		return f.Stats.LossRate()
	}
	fast := lossAt(50 * sim.Millisecond)
	slow := lossAt(500 * sim.Millisecond)
	if slow <= fast {
		t.Fatalf("loss should grow with detection delay: fast=%v slow=%v", fast, slow)
	}
	// 500ms outage of a 3s flow at 5ms spacing loses roughly 100 packets
	// of ~600: between 10%% and 25%%.
	if slow < 0.10 || slow > 0.30 {
		t.Fatalf("slow-detection loss = %v, want ~0.17", slow)
	}
}

func TestLinkRestoreReturnsToShortPath(t *testing.T) {
	b := ringBackbone(Config{Seed: 83})
	twoSites(b)
	b.FailLink("PE1", "P1", 0)
	b.RestoreLink("PE1", "P1", 0)
	f, _ := b.FlowBetween("f", "hq", "branch", 80)
	trafgen.CBR(b.Net, f, 200, 10*sim.Millisecond, 0, sim.Second)
	before := b.Router("P1").LabelLookups
	b.Net.Run()
	if f.Stats.LossRate() > 0 {
		t.Fatalf("loss after restore = %v", f.Stats.LossRate())
	}
	if b.Router("P1").LabelLookups == before {
		t.Fatal("traffic did not return to the short path")
	}
}

func TestTELSPResignalledAfterFailure(t *testing.T) {
	b := ringBackbone(Config{Seed: 84})
	twoSites(b)
	if _, err := b.SetupTELSP("t", "PE1", "PE2", 5e6, -1, rsvp.SetupOptions{}); err != nil {
		t.Fatal(err)
	}
	b.FailLink("PE1", "P1", 0)
	// The re-signalled LSP must ride the protection path.
	lsps := b.RSVP.LSPs()
	if len(lsps) != 1 {
		t.Fatalf("LSPs after failure = %d", len(lsps))
	}
	nodes := lsps[0].Path.Nodes(b.G)
	viaP2 := false
	for _, n := range nodes {
		if b.G.Name(n) == "P2" {
			viaP2 = true
		}
	}
	if !viaP2 {
		t.Fatalf("re-signalled LSP path: %v", lsps[0].Path.String(b.G))
	}
	// Traffic still flows and uses it.
	f, _ := b.FlowBetween("f", "hq", "branch", 80)
	trafgen.CBR(b.Net, f, 200, 10*sim.Millisecond, 0, sim.Second)
	b.Net.Run()
	if f.Stats.Delivered != f.Stats.Sent {
		t.Fatalf("delivery after TE re-signal: %d/%d", f.Stats.Delivered, f.Stats.Sent)
	}
}

func TestFailureInPlainIPMode(t *testing.T) {
	b := ringBackbone(Config{Seed: 85, PlainIP: true})
	b.DefineVPN("acme")
	b.AddSite(SiteSpec{VPN: "acme", Name: "hq", PE: "PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.AddSite(SiteSpec{VPN: "acme", Name: "branch", PE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	b.FailLink("PE1", "P1", 0)
	f, _ := b.FlowBetween("f", "hq", "branch", 80)
	trafgen.CBR(b.Net, f, 200, 10*sim.Millisecond, 0, sim.Second)
	b.Net.Run()
	if f.Stats.LossRate() > 0 {
		t.Fatalf("plain-IP reroute failed: loss %v", f.Stats.LossRate())
	}
}

func TestDSTEPremiumCapInCore(t *testing.T) {
	b := ringBackbone(Config{Seed: 86, DSTEPremiumFraction: 0.3})
	twoSites(b)
	// 100 Mb/s links: the premium pool is 30 Mb/s per link. Both paths
	// combined offer 60 Mb/s of premium.
	if _, err := b.SetupTELSP("v1", "PE1", "PE2", 30e6, qosVoice, rsvp.SetupOptions{}); err != nil {
		t.Fatal(err)
	}
	// Second premium LSP must avoid the exhausted short path.
	l2, err := b.SetupTELSP("v2", "PE1", "PE2", 30e6, qosVoice, rsvp.SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	viaP2 := false
	for _, n := range l2.Path.Nodes(b.G) {
		if b.G.Name(n) == "P2" {
			viaP2 = true
		}
	}
	if !viaP2 {
		t.Fatalf("premium LSP ignored pool: %s", l2.Path.String(b.G))
	}
	// A third exceeds every pool.
	if _, err := b.SetupTELSP("v3", "PE1", "PE2", 10e6, qosVoice, rsvp.SetupOptions{}); err == nil {
		t.Fatal("premium beyond all pools admitted")
	}
	// Best-effort TE still has the remaining 70 Mb/s.
	if _, err := b.SetupTELSP("d1", "PE1", "PE2", 60e6, qosBE, rsvp.SetupOptions{}); err != nil {
		t.Fatalf("data LSP rejected: %v", err)
	}
}
