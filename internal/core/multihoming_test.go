package core

import (
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/trafgen"
)

// dualHomedSetup builds a backbone where site "dc" attaches to both PE2
// (primary) and PE3 (backup).
func dualHomedSetup(t *testing.T) *Backbone {
	t.Helper()
	b := NewBackbone(Config{Seed: 130})
	b.AddPE("PE1")
	b.AddP("P1")
	b.AddPE("PE2")
	b.AddPE("PE3")
	b.Link("PE1", "P1", 100e6, sim.Millisecond, 1)
	b.Link("P1", "PE2", 100e6, sim.Millisecond, 1)
	b.Link("P1", "PE3", 100e6, sim.Millisecond, 1)
	b.BuildProvider()
	b.DefineVPN("acme")
	b.AddSite(SiteSpec{VPN: "acme", Name: "hq", PE: "PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.AddSite(SiteSpec{VPN: "acme", Name: "dc", PE: "PE2", BackupPE: "PE3",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	b.ConvergeVPNs()
	return b
}

func TestDualHomedPrefersPrimary(t *testing.T) {
	b := dualHomedSetup(t)
	f, _ := b.FlowBetween("f", "hq", "dc", 80)
	trafgen.CBR(b.Net, f, 200, 10*sim.Millisecond, 0, sim.Second)
	b.Net.Run()
	if f.Stats.Delivered != f.Stats.Sent {
		t.Fatalf("delivery %d/%d", f.Stats.Delivered, f.Stats.Sent)
	}
	if b.Router("PE2").LFIB.Popped == 0 {
		t.Fatal("primary PE unused")
	}
	if b.Router("PE3").LFIB.Popped != 0 {
		t.Fatal("backup PE carried traffic while primary was healthy")
	}
}

func TestDualHomedFailover(t *testing.T) {
	b := dualHomedSetup(t)
	f, _ := b.FlowBetween("f", "hq", "dc", 80)
	rev, _ := b.FlowBetween("rev", "dc", "hq", 81)
	trafgen.CBR(b.Net, f, 200, 10*sim.Millisecond, 0, 2*sim.Second)
	trafgen.CBR(b.Net, rev, 200, 10*sim.Millisecond, 0, 2*sim.Second)
	b.At(sim.Second, func() {
		if err := b.FailSitePrimary("dc"); err != nil {
			t.Error(err)
		}
	})
	b.Net.Run()
	// Instant control-plane failover: nothing (or almost nothing) lost.
	if f.Stats.LossRate() > 0.02 {
		t.Fatalf("forward loss on failover = %v", f.Stats.LossRate())
	}
	if rev.Stats.LossRate() > 0.02 {
		t.Fatalf("reverse loss on failover = %v", rev.Stats.LossRate())
	}
	if b.Router("PE3").LFIB.Popped == 0 {
		t.Fatal("backup PE never took over")
	}
	if b.IsolationViolations != 0 {
		t.Fatalf("violations: %d", b.IsolationViolations)
	}
}

// The backup PE's VPN labels must survive both reconvergence branches: a
// full rebuild re-binds them from the provisioning record (it used to
// re-bind the primary's only, black-holing the backup path after any
// reconvergence), and a link flap never touches them.
func TestDualHomedFailoverAfterReconvergence(t *testing.T) {
	for name, reconverge := range map[string]func(b *Backbone){
		"full": func(b *Backbone) { b.reconvergeProvider() },
		"link-flap": func(b *Backbone) {
			flapStep{a: "PE1", z: "P1"}.apply(b, 0, false)
			flapStep{a: "PE1", z: "P1", restore: true}.apply(b, 0, false)
		},
	} {
		t.Run(name, func(t *testing.T) {
			b := dualHomedSetup(t)
			reconverge(b)
			if err := b.FailSitePrimary("dc"); err != nil {
				t.Fatal(err)
			}
			f, _ := b.FlowBetween("f", "hq", "dc", 80)
			trafgen.CBR(b.Net, f, 200, 10*sim.Millisecond, 0, sim.Second)
			b.Net.Run()
			if f.Stats.Sent == 0 || f.Stats.Delivered != f.Stats.Sent {
				t.Fatalf("delivery over the backup PE %d/%d", f.Stats.Delivered, f.Stats.Sent)
			}
		})
	}
}

func TestFailSitePrimaryErrors(t *testing.T) {
	b := dualHomedSetup(t)
	if err := b.FailSitePrimary("hq"); err == nil {
		t.Fatal("single-homed site accepted")
	}
	if err := b.FailSitePrimary("ghost"); err == nil {
		t.Fatal("unknown site accepted")
	}
}

func TestAccessShaping(t *testing.T) {
	b := NewBackbone(Config{Seed: 131})
	b.AddPE("PE1")
	b.AddPE("PE2")
	b.Link("PE1", "PE2", 100e6, sim.Millisecond, 1)
	b.BuildProvider()
	b.DefineVPN("acme")
	// 2 Mb/s purchased rate on 100 Mb/s physical access.
	b.AddSite(SiteSpec{VPN: "acme", Name: "a", PE: "PE1", ShapeRate: 2e6,
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.AddSite(SiteSpec{VPN: "acme", Name: "z", PE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	b.ConvergeVPNs()
	f, _ := b.FlowBetween("f", "a", "z", 80)
	// Offer 10 Mb/s for 2 s.
	trafgen.CBR(b.Net, f, 1400, 1120*sim.Microsecond, 0, 2*sim.Second)
	b.Net.RunUntil(12 * sim.Second)
	thr := f.Stats.ThroughputBps()
	// Goodput is clamped near the shaped rate (shaper delays, so with big
	// enough queues everything eventually arrives at ~2 Mb/s).
	if thr > 2.4e6 {
		t.Fatalf("shaped goodput = %.0f b/s, want <= ~2.4M", thr)
	}
	if thr < 1.2e6 {
		t.Fatalf("shaped goodput collapsed: %.0f b/s", thr)
	}
}

func TestHostsBehindCE(t *testing.T) {
	b := NewBackbone(Config{Seed: 140})
	b.AddPE("PE1")
	b.AddPE("PE2")
	b.Link("PE1", "PE2", 100e6, sim.Millisecond, 1)
	b.BuildProvider()
	b.DefineVPN("acme")
	b.AddSite(SiteSpec{VPN: "acme", Name: "office", PE: "PE1", Hosts: 3,
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.AddSite(SiteSpec{VPN: "acme", Name: "dc", PE: "PE2", Hosts: 2,
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	b.ConvergeVPNs()

	// Host 2 of office talks to host 1 of dc, end to end.
	f, err := b.FlowBetweenHosts("h2h", "office", 2, "dc", 1, 443)
	if err != nil {
		t.Fatal(err)
	}
	trafgen.CBR(b.Net, f, 400, 10*sim.Millisecond, 0, sim.Second)
	b.Net.Run()
	if f.Stats.Delivered != f.Stats.Sent || f.Stats.Sent == 0 {
		t.Fatalf("host-to-host delivery %d/%d", f.Stats.Delivered, f.Stats.Sent)
	}
	// Delivery happened at the destination host, not the CE.
	dcHost1, _ := b.G.NodeByName("host-dc-1")
	if b.Net.Router(dcHost1).Delivered == 0 {
		t.Fatal("destination host saw nothing")
	}
	// CE-addressed traffic (outside any host /32) still terminates at CE.
	g, _ := b.FlowBetween("toCE", "office", "dc", 80)
	g.Dst = addr.MustParseIPv4("10.2.0.200")
	b.ReregisterFlow(g)
	start := b.E.Now() + 10*sim.Millisecond
	trafgen.CBR(b.Net, g, 400, 10*sim.Millisecond, start, start+500*sim.Millisecond)
	b.Net.Run()
	if g.Stats.Delivered == 0 {
		t.Fatal("non-host site address unreachable")
	}
	if b.IsolationViolations != 0 {
		t.Fatalf("violations: %d", b.IsolationViolations)
	}
}

func TestFlowBetweenHostsErrors(t *testing.T) {
	b := NewBackbone(Config{Seed: 141})
	b.AddPE("PE1")
	b.AddPE("PE2")
	b.Link("PE1", "PE2", 100e6, sim.Millisecond, 1)
	b.BuildProvider()
	b.DefineVPN("acme")
	b.AddSite(SiteSpec{VPN: "acme", Name: "a", PE: "PE1", Hosts: 1,
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.AddSite(SiteSpec{VPN: "acme", Name: "z", PE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	b.ConvergeVPNs()
	if _, err := b.FlowBetweenHosts("x", "a", 5, "z", 0, 80); err == nil {
		t.Fatal("out-of-range host accepted")
	}
	if _, err := b.FlowBetweenHosts("x", "a", 0, "z", 0, 80); err == nil {
		t.Fatal("host on hostless site accepted")
	}
	if _, err := b.FlowBetweenHosts("x", "ghost", 0, "z", 0, 80); err == nil {
		t.Fatal("unknown site accepted")
	}
}
