package core

import (
	"errors"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/trafgen"
	"mplsvpn/internal/vpn"
)

// newTwoCarriers builds two providers, each a PE, a P and an ASBR PE in a
// line, with no VPNs yet.
func newTwoCarriers(seed uint64) *InterAS {
	x := NewInterAS(seed,
		[]string{"as1", "as2"},
		[]Config{{Scheduler: SchedHybrid}, {Scheduler: SchedHybrid}})

	as1 := x.AS("as1")
	as1.AddPE("as1-PE1")
	as1.AddP("as1-P1")
	as1.AddPE("as1-ASBR")
	as1.Link("as1-PE1", "as1-P1", 100e6, sim.Millisecond, 1)
	as1.Link("as1-P1", "as1-ASBR", 100e6, sim.Millisecond, 1)
	as1.BuildProvider()

	as2 := x.AS("as2")
	as2.AddPE("as2-ASBR")
	as2.AddP("as2-P1")
	as2.AddPE("as2-PE1")
	as2.Link("as2-ASBR", "as2-P1", 100e6, sim.Millisecond, 1)
	as2.Link("as2-P1", "as2-PE1", 100e6, sim.Millisecond, 1)
	as2.BuildProvider()
	return x
}

// peerCarriers joins the two carriers' ASBRs with one peering of the given
// option carrying vpns, and provisions it.
func peerCarriers(t *testing.T, x *InterAS, opt InterASOption, vpns ...string) {
	t.Helper()
	if _, err := x.AddPeering(PeeringSpec{ASA: "as1", ASBRA: "as1-ASBR", ASB: "as2", ASBRB: "as2-ASBR",
		VPNs: vpns, Option: opt, Bandwidth: 100e6, Delay: 2 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	x.ReconcilePeerings()
}

// buildTwoCarriers provisions VPN "acme" across two providers: a site in
// AS1 and a site in AS2, joined at ASBR PEs with one peering of the given
// option.
func buildTwoCarriers(t *testing.T, opt InterASOption) (*InterAS, *trafgen.Flow, *trafgen.Flow) {
	t.Helper()
	x := newTwoCarriers(42)
	as1, as2 := x.AS("as1"), x.AS("as2")
	as1.DefineVPN("acme")
	as2.DefineVPN("acme")
	as1.AddSite(SiteSpec{VPN: "acme", Name: "west", PE: "as1-PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	as2.AddSite(SiteSpec{VPN: "acme", Name: "east", PE: "as2-PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	as1.ConvergeVPNs()
	as2.ConvergeVPNs()
	peerCarriers(t, x, opt, "acme")

	fwd, err := x.FlowBetween("fwd", "as1", "west", "as2", "east", 80)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := x.FlowBetween("rev", "as2", "east", "as1", "west", 81)
	if err != nil {
		t.Fatal(err)
	}
	return x, fwd, rev
}

// asbrHolds reports whether the named ASBR of b holds prefix p of a VPN: as
// a BGP best path, or as a route of its VRF.
func asbrHolds(b *Backbone, asbr, vpnName string, p addr.Prefix) bool {
	id := b.mustNode(asbr)
	if sp, ok := b.BGP.Speaker(id); ok {
		if _, ok := sp.Best(addr.VPNPrefix{RD: b.vpns[vpnName].RD, Prefix: p}); ok {
			return true
		}
	}
	held := false
	if v, ok := b.routers[id].VRFs[vpnName]; ok {
		v.Walk(func(q addr.Prefix, _ vpn.Route) bool {
			held = q == p
			return !held
		})
	}
	return held
}

func TestInterASVPNDelivery(t *testing.T) {
	x, fwd, rev := buildTwoCarriers(t, OptionA)
	trafgen.CBR(x.Net, fwd, 200, 10*sim.Millisecond, 0, sim.Second)
	trafgen.CBR(x.Net, rev, 200, 10*sim.Millisecond, 0, sim.Second)
	x.Net.Run()

	if fwd.Stats.Delivered != fwd.Stats.Sent || fwd.Stats.Sent == 0 {
		t.Fatalf("as1->as2 delivery %d/%d", fwd.Stats.Delivered, fwd.Stats.Sent)
	}
	if rev.Stats.Delivered != rev.Stats.Sent {
		t.Fatalf("as2->as1 delivery %d/%d", rev.Stats.Delivered, rev.Stats.Sent)
	}
	if x.AS("as1").IsolationViolations+x.AS("as2").IsolationViolations != 0 {
		t.Fatal("isolation violations across carriers")
	}
	// Labels stayed within each AS: the core of AS2 label-switched the
	// forward traffic (re-labelled at the ASBR), and no label crossed the
	// boundary (the option-A hop is plain IP: both ASBRs popped).
	if x.AS("as2").Router("as2-P1").LabelLookups == 0 {
		t.Fatal("AS2 core did not label-switch transit VPN traffic")
	}
}

func TestInterASLatencyCrossesBothCores(t *testing.T) {
	x, fwd, _ := buildTwoCarriers(t, OptionA)
	trafgen.CBR(x.Net, fwd, 200, 10*sim.Millisecond, 0, sim.Second)
	x.Net.Run()
	// Path: ce - PE1 - P1 - ASBR =2ms= ASBR - P1 - PE1 - ce:
	// 7 hops of 1ms + one of 2ms = 8ms propagation at minimum.
	p50 := fwd.Stats.Latency.Percentile(50)
	if p50 < 8 || p50 > 12 {
		t.Fatalf("cross-carrier p50 = %v ms, want ~8-12", p50)
	}
}

func TestInterASIsolationOtherVPN(t *testing.T) {
	// A second VPN exists only in AS1 and is NOT interconnected: its
	// traffic must not reach AS2 even though the ASBRs are linked.
	x, _, _ := buildTwoCarriers(t, OptionA)
	as1 := x.AS("as1")
	as1.DefineVPN("solo")
	as1.AddSite(SiteSpec{VPN: "solo", Name: "lonely", PE: "as1-PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.5.0.0/16")}})
	as1.ConvergeVPNs()
	x.ReconcilePeerings()
	f, _ := as1.FlowBetween("leak", "lonely", "lonely", 80)
	// Aim at AS2's east prefix from the unconnected VPN.
	f.Dst = addr.MustParseIPv4("10.2.0.1")
	as1.ReregisterFlow(f)
	trafgen.CBR(x.Net, f, 200, 10*sim.Millisecond, 0, 200*sim.Millisecond)
	x.Net.Run()
	if f.Stats.Delivered != 0 {
		t.Fatal("unconnected VPN leaked across the interconnect")
	}
}

// TestRefreshInterASPicksUpNewSites: a site added in AS2 after the peering
// was provisioned is exported across the boundary by the next
// ReconcilePeerings, under every option, without disturbing the old site or
// the reverse path; a site removed afterwards is withdrawn from the far
// ASBR by the reconcile after that.
func TestRefreshInterASPicksUpNewSites(t *testing.T) {
	east2 := addr.MustParsePrefix("10.3.0.0/16")
	for _, opt := range []InterASOption{OptionA, OptionB, OptionC} {
		t.Run("option"+opt.String(), func(t *testing.T) {
			x, fwd, rev := buildTwoCarriers(t, opt)
			as1, as2 := x.AS("as1"), x.AS("as2")
			as2.AddSite(SiteSpec{VPN: "acme", Name: "east2", PE: "as2-PE1",
				Prefixes: []addr.Prefix{east2}})
			as2.ConvergeVPNs()
			x.ReconcilePeerings()
			if !asbrHolds(as1, "as1-ASBR", "acme", east2) {
				t.Fatalf("option %s: far ASBR never learned the new site's prefix", opt)
			}

			f2, err := x.FlowBetween("f2", "as1", "west", "as2", "east2", 82)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []*trafgen.Flow{fwd, rev, f2} {
				trafgen.CBR(x.Net, f, 200, 10*sim.Millisecond, 0, 500*sim.Millisecond)
			}
			x.Net.Run()
			for _, f := range []*trafgen.Flow{fwd, rev, f2} {
				if f.Stats.Delivered != f.Stats.Sent || f.Stats.Sent == 0 {
					t.Fatalf("option %s flow %s: %d/%d delivered after the new site",
						opt, f.Stats.Name, f.Stats.Delivered, f.Stats.Sent)
				}
			}
			if v := as1.IsolationViolations + as2.IsolationViolations; v != 0 {
				t.Fatalf("option %s: %d isolation violations", opt, v)
			}

			if err := as2.RemoveSite("east2"); err != nil {
				t.Fatal(err)
			}
			as2.ConvergeVPNs()
			x.ReconcilePeerings()
			if asbrHolds(as1, "as1-ASBR", "acme", east2) {
				t.Fatalf("option %s: far ASBR still holds the removed site's prefix", opt)
			}
			east := addr.MustParsePrefix("10.2.0.0/16")
			if !asbrHolds(as1, "as1-ASBR", "acme", east) {
				t.Fatalf("option %s: far ASBR lost the remaining site's prefix", opt)
			}

			// A site change the next reconcile meets with no path at all:
			// the boundary state is torn down, not kept for the old sites.
			east3 := addr.MustParsePrefix("10.4.0.0/16")
			as2.AddSite(SiteSpec{VPN: "acme", Name: "east3", PE: "as2-PE1",
				Prefixes: []addr.Prefix{east3}})
			as2.ConvergeVPNs()
			if err := x.FailPeering(0); err != nil {
				t.Fatal(err)
			}
			if asbrHolds(as1, "as1-ASBR", "acme", east) {
				t.Fatalf("option %s: far ASBR holds a prefix across a cut peering", opt)
			}
			if err := x.RestorePeering(0); err != nil {
				t.Fatal(err)
			}
			if !asbrHolds(as1, "as1-ASBR", "acme", east) || !asbrHolds(as1, "as1-ASBR", "acme", east3) {
				t.Fatalf("option %s: far ASBR did not relearn both sites after the peering came back", opt)
			}
		})
	}
}

func TestInterASOptionB(t *testing.T) {
	x := newTwoCarriers(43)
	as1, as2 := x.AS("as1"), x.AS("as2")
	for _, b := range []*Backbone{as1, as2} {
		b.DefineVPN("acme")
		b.DefineVPN("globex")
	}
	as1.AddSite(SiteSpec{VPN: "acme", Name: "west", PE: "as1-PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	as2.AddSite(SiteSpec{VPN: "acme", Name: "east", PE: "as2-PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	as1.AddSite(SiteSpec{VPN: "globex", Name: "g-west", PE: "as1-PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	as2.AddSite(SiteSpec{VPN: "globex", Name: "g-east", PE: "as2-PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	as1.ConvergeVPNs()
	as2.ConvergeVPNs()

	// ONE shared link carries both VPNs (option A would need a subinterface
	// per VPN beside it).
	links := x.G.NumLinks()
	peerCarriers(t, x, OptionB, "acme", "globex")
	if added := x.G.NumLinks() - links; added != 2 {
		t.Fatalf("option B peering added %d links, want one duplex pair", added)
	}

	fa, _ := x.FlowBetween("fa", "as1", "west", "as2", "east", 80)
	fg, _ := x.FlowBetween("fg", "as1", "g-west", "as2", "g-east", 81)
	rev, _ := x.FlowBetween("rev", "as2", "east", "as1", "west", 82)
	for _, f := range []*trafgen.Flow{fa, fg, rev} {
		trafgen.CBR(x.Net, f, 200, 10*sim.Millisecond, 0, sim.Second)
	}
	x.Net.Run()

	for _, f := range []*trafgen.Flow{fa, fg, rev} {
		if f.Stats.Delivered != f.Stats.Sent || f.Stats.Sent == 0 {
			t.Fatalf("flow %s: %d/%d", f.Stats.Name, f.Stats.Delivered, f.Stats.Sent)
		}
	}
	// Option B keeps the boundary labelled: both ASBRs swap, never popping
	// customer traffic to IP at the border.
	if as2.Router("as2-ASBR").LFIB.Swapped == 0 {
		t.Fatal("as2's ASBR never swapped")
	}
	if as1.Router("as1-ASBR").LFIB.Swapped == 0 {
		t.Fatal("as1's ASBR never swapped")
	}
	if as1.IsolationViolations+as2.IsolationViolations != 0 {
		t.Fatal("isolation violations with option B")
	}
	// Overlapping address spaces stayed separate across the boundary:
	// acme's 10.2.0.1 and globex's 10.2.0.1 both delivered correctly above.
}

// TestInterASOptionBUnknownVPN: AddPeering refuses a spec naming an unknown
// VPN, AS or ASBR with a typed error, never a panic, and adds no link.
func TestInterASOptionBUnknownVPN(t *testing.T) {
	x := NewInterAS(44, []string{"a", "b"}, []Config{{}, {}})
	x.AS("a").AddPE("a-PE")
	x.AS("a").AddP("a-P")
	x.AS("a").Link("a-PE", "a-P", 100e6, sim.Millisecond, 1)
	x.AS("a").BuildProvider()
	x.AS("b").AddPE("b-PE")
	x.AS("b").BuildProvider()
	x.AS("a").DefineVPN("v")
	ok := PeeringSpec{ASA: "a", ASBRA: "a-PE", ASB: "b", ASBRB: "b-PE", Option: OptionB}
	for _, tc := range []struct {
		name string
		edit func(*PeeringSpec)
		want ProvisionCode
	}{
		{"VPN one side lacks", func(s *PeeringSpec) { s.VPNs = []string{"v"} }, ProvUnknownVPN},
		{"VPN neither side has", func(s *PeeringSpec) { s.VPNs = []string{"w"} }, ProvUnknownVPN},
		{"option A with no shared VPN", func(s *PeeringSpec) { s.Option = OptionA }, ProvUnknownVPN},
		{"unknown AS A", func(s *PeeringSpec) { s.ASA = "zz" }, ProvUnknownAS},
		{"unknown AS B", func(s *PeeringSpec) { s.ASB = "zz" }, ProvUnknownAS},
		{"unknown ASBR", func(s *PeeringSpec) { s.ASBRA = "nope" }, ProvUnknownNode},
		{"ASBR of the other AS", func(s *PeeringSpec) { s.ASBRB = "a-PE" }, ProvUnknownNode},
		{"P router as ASBR", func(s *PeeringSpec) { s.ASBRA = "a-P" }, ProvUnknownNode},
	} {
		spec := ok
		tc.edit(&spec)
		links := x.G.NumLinks()
		_, err := x.AddPeering(spec)
		var pe *ProvisionError
		if !errors.As(err, &pe) || pe.Code != tc.want {
			t.Errorf("%s: AddPeering = %v, want a ProvisionError %v", tc.name, err, tc.want)
		}
		if n := x.G.NumLinks(); n != links {
			t.Errorf("%s: refused spec added %d links", tc.name, n-links)
		}
	}
}

// TestInterASSetASTransitUnknownAS: publishing the abstraction of an AS the
// simulation does not host is a typed refusal, never a panic, and leaves the
// selector's view of the hosted ASes as it was.
func TestInterASSetASTransitUnknownAS(t *testing.T) {
	x := NewInterAS(45, []string{"a", "b"}, []Config{{}, {}})
	if err := x.SetASTransit("a", 0.002, 10e6); err != nil {
		t.Fatalf("hosted AS refused: %v", err)
	}
	err := x.SetASTransit("zz", 0.001, 10e6)
	var pe *ProvisionError
	if !errors.As(err, &pe) || pe.Code != ProvUnknownAS || pe.Subject != "as:zz" {
		t.Fatalf("SetASTransit(unknown) = %v, want a ProvisionError %v on as:zz", err, ProvUnknownAS)
	}
	if _, ok := x.plane().abstract["zz"]; ok {
		t.Fatal("the refused AS entered the selector's abstraction table")
	}
	if got := x.plane().abstract["a"]; got.transitDelay != 0.002 || got.capacity != 10e6 {
		t.Fatalf("hosted AS abstraction = %+v", got)
	}
}
