package core

import (
	"strings"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/trafgen"
)

// buildThreeProviders provisions VPN "extranet" across alpha, beta, gamma
// with the given interconnect option everywhere: alpha<->beta and
// beta<->gamma are the preferred (cheap) peerings, alpha<->gamma a direct
// backup with a deliberately worse abstract delay. Sites sit in alpha (hq)
// and gamma (plant); beta is pure transit.
func buildThreeProviders(t *testing.T, opt InterASOption) *InterAS {
	t.Helper()
	return buildThreeProvidersWith(t, opt, false)
}

// buildThreeProvidersWith is buildThreeProviders; with dualHomed, gamma has a
// second edge router g-PE2 and plant is dual-homed to it.
func buildThreeProvidersWith(t *testing.T, opt InterASOption, dualHomed bool) *InterAS {
	t.Helper()
	x := NewInterAS(77,
		[]string{"alpha", "beta", "gamma"},
		[]Config{{Scheduler: SchedHybrid}, {Scheduler: SchedHybrid}, {Scheduler: SchedHybrid}})

	alpha := x.AS("alpha")
	alpha.AddPE("a-PE")
	alpha.AddP("a-P")
	alpha.AddPE("a-ASBR1")
	alpha.AddPE("a-ASBR2")
	alpha.Link("a-PE", "a-P", 100e6, sim.Millisecond, 1)
	alpha.Link("a-P", "a-ASBR1", 100e6, sim.Millisecond, 1)
	alpha.Link("a-P", "a-ASBR2", 100e6, sim.Millisecond, 1)
	alpha.BuildProvider()

	beta := x.AS("beta")
	beta.AddPE("b-ASBR1")
	beta.AddP("b-P")
	beta.AddPE("b-ASBR2")
	beta.Link("b-ASBR1", "b-P", 100e6, sim.Millisecond, 1)
	beta.Link("b-P", "b-ASBR2", 100e6, sim.Millisecond, 1)
	beta.BuildProvider()

	gamma := x.AS("gamma")
	gamma.AddPE("g-ASBR1")
	gamma.AddP("g-P")
	gamma.AddPE("g-PE")
	gamma.AddPE("g-ASBR2")
	gamma.Link("g-ASBR1", "g-P", 100e6, sim.Millisecond, 1)
	gamma.Link("g-P", "g-PE", 100e6, sim.Millisecond, 1)
	gamma.Link("g-P", "g-ASBR2", 100e6, sim.Millisecond, 1)
	plant := SiteSpec{VPN: "extranet", Name: "plant", PE: "g-PE",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}}
	if dualHomed {
		gamma.AddPE("g-PE2")
		gamma.Link("g-P", "g-PE2", 100e6, sim.Millisecond, 1)
		plant.BackupPE = "g-PE2"
	}
	gamma.BuildProvider()

	for _, asn := range []string{"alpha", "beta", "gamma"} {
		x.AS(asn).DefineVPN("extranet")
	}
	alpha.AddSite(SiteSpec{VPN: "extranet", Name: "hq", PE: "a-PE",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	gamma.AddSite(plant)
	alpha.ConvergeVPNs()
	beta.ConvergeVPNs()
	gamma.ConvergeVPNs()

	for _, asn := range []string{"alpha", "beta", "gamma"} {
		if err := x.SetASTransit(asn, 0.001, 100e6); err != nil {
			t.Fatal(err)
		}
	}

	add := func(spec PeeringSpec) int {
		id, err := x.AddPeering(spec)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	add(PeeringSpec{ASA: "alpha", ASBRA: "a-ASBR1", ASB: "beta", ASBRB: "b-ASBR1",
		VPNs: []string{"extranet"}, Option: opt, Delay: sim.Millisecond})
	add(PeeringSpec{ASA: "beta", ASBRA: "b-ASBR2", ASB: "gamma", ASBRB: "g-ASBR1",
		VPNs: []string{"extranet"}, Option: opt, Delay: sim.Millisecond})
	// Direct backup: physically fine, abstractly expensive.
	add(PeeringSpec{ASA: "alpha", ASBRA: "a-ASBR2", ASB: "gamma", ASBRB: "g-ASBR2",
		VPNs: []string{"extranet"}, Option: opt, Delay: sim.Millisecond, AbstractDelay: 0.050})

	x.ReconcilePeerings()
	return x
}

// TestInterASPeeringDelivery proves each option carries traffic end to end
// across a transit provider, in both directions, with zero loss and no
// isolation leaks.
func TestInterASPeeringDelivery(t *testing.T) {
	for _, opt := range []InterASOption{OptionA, OptionB, OptionC} {
		t.Run("option"+opt.String(), func(t *testing.T) {
			x := buildThreeProviders(t, opt)

			if hops, ok := x.SelectedPath("extranet", "gamma", "alpha"); !ok || len(hops) != 2 {
				t.Fatalf("selected path gamma->alpha = %v, %v; want 2 hops via beta", hops, ok)
			}

			fwd, err := x.FlowBetween("fwd", "alpha", "hq", "gamma", "plant", 80)
			if err != nil {
				t.Fatal(err)
			}
			rev, err := x.FlowBetween("rev", "gamma", "plant", "alpha", "hq", 81)
			if err != nil {
				t.Fatal(err)
			}
			trafgen.CBR(x.Net, fwd, 200, 10*sim.Millisecond, 0, sim.Second)
			trafgen.CBR(x.Net, rev, 200, 10*sim.Millisecond, 0, sim.Second)
			x.Net.Run()

			for _, f := range []*trafgen.Flow{fwd, rev} {
				if f.Stats.Delivered != f.Stats.Sent || f.Stats.Sent == 0 {
					t.Fatalf("option %s flow %s: %d/%d delivered",
						opt, f.Stats.Name, f.Stats.Delivered, f.Stats.Sent)
				}
			}
			for _, asn := range []string{"alpha", "beta", "gamma"} {
				if v := x.AS(asn).IsolationViolations; v != 0 {
					t.Fatalf("option %s: %d isolation violations in %s", opt, v, asn)
				}
			}
			if x.InterASStatsNow().Partitioned != 0 {
				t.Fatalf("option %s: partition count %d with all providers up",
					opt, x.InterASStatsNow().Partitioned)
			}
		})
	}
}

// TestInterASFailover kills the transit provider mid-run: the hello machine
// must detect the silence, graceful restart must expire, and the selector
// must move both directions onto the direct backup peering — then fold beta
// back in after it restores and reconverges.
func TestInterASFailover(t *testing.T) {
	for _, opt := range []InterASOption{OptionA, OptionB, OptionC} {
		t.Run("option"+opt.String(), func(t *testing.T) {
			x := buildThreeProviders(t, opt)
			x.EnableInterASSurvivability(HelloOptions{
				Hello:           25 * sim.Millisecond,
				HoldMisses:      3,
				GracefulRestart: true,
				RestartTime:     300 * sim.Millisecond,
				Horizon:         4 * sim.Second,
			})

			fwd, err := x.FlowBetween("fwd", "alpha", "hq", "gamma", "plant", 80)
			if err != nil {
				t.Fatal(err)
			}
			rev, err := x.FlowBetween("rev", "gamma", "plant", "alpha", "hq", 81)
			if err != nil {
				t.Fatal(err)
			}
			trafgen.CBR(x.Net, fwd, 200, 10*sim.Millisecond, 0, 3500*sim.Millisecond)
			trafgen.CBR(x.Net, rev, 200, 10*sim.Millisecond, 0, 3500*sim.Millisecond)

			x.AS("alpha").At(sim.Second, func() {
				if err := x.FailAS("beta"); err != nil {
					t.Errorf("FailAS: %v", err)
				}
			})
			var midHops []int
			var midOK bool
			var deliveredAtMid int
			x.AS("alpha").At(2*sim.Second, func() {
				midHops, midOK = x.SelectedPath("extranet", "gamma", "alpha")
				deliveredAtMid = fwd.Stats.Delivered
			})
			x.AS("alpha").At(2200*sim.Millisecond, func() {
				if err := x.RestoreAS("beta", 100*sim.Millisecond); err != nil {
					t.Errorf("RestoreAS: %v", err)
				}
			})
			x.E.RunUntil(4 * sim.Second)

			// Mid-outage the selection must be the single-hop direct peering.
			if !midOK || len(midHops) != 1 || midHops[0] != 2 {
				t.Fatalf("option %s: mid-outage path = %v, %v; want direct peering 2", opt, midHops, midOK)
			}
			// After restore + reconvergence the cheap path via beta wins again.
			if hops, ok := x.SelectedPath("extranet", "gamma", "alpha"); !ok || len(hops) != 2 {
				t.Fatalf("option %s: post-restore path = %v, %v; want 2 hops via beta", opt, hops, ok)
			}
			for _, f := range []*trafgen.Flow{fwd, rev} {
				if f.Stats.Sent == 0 {
					t.Fatalf("option %s: flow %s sent nothing", opt, f.Stats.Name)
				}
				if loss := f.Stats.LossRate(); loss > 0.25 {
					t.Fatalf("option %s flow %s: loss %.1f%% exceeds failover budget",
						opt, f.Stats.Name, loss*100)
				}
				// Traffic kept flowing on the backup after the failover...
				if f.Stats.Delivered <= deliveredAtMid {
					t.Fatalf("option %s flow %s: no deliveries after failover (%d then %d)",
						opt, f.Stats.Name, deliveredAtMid, f.Stats.Delivered)
				}
			}
			st := x.InterASStatsNow()
			if st.PeeringFlaps < 2 || st.PeeringRestores < 2 {
				t.Fatalf("option %s: flaps=%d restores=%d; want >=2 each", opt, st.PeeringFlaps, st.PeeringRestores)
			}
			if st.Failovers == 0 {
				t.Fatalf("option %s: no failovers counted", opt)
			}
			if st.Reinstalls == 0 {
				t.Fatalf("option %s: beta's reconvergence did not trigger a reinstall", opt)
			}
			for _, asn := range []string{"alpha", "beta", "gamma"} {
				if v := x.AS(asn).IsolationViolations; v != 0 {
					t.Fatalf("option %s: %d isolation violations in %s", opt, v, asn)
				}
			}
			// The journal must tell the graceful-restart story on a survivor.
			j := x.AS("alpha").Telemetry()
			_ = j
			dig := x.SelectionDigest()
			if !strings.Contains(dig, "state=up") {
				t.Fatalf("option %s: selection digest has no re-established peering:\n%s", opt, dig)
			}
		})
	}
}

// TestInterASStateDigestStable pins that the digest is deterministic across
// two identical runs (the chaos determinism contract's multi-AS half).
func TestInterASStateDigestStable(t *testing.T) {
	run := func() string {
		x := buildThreeProviders(t, OptionB)
		f, err := x.FlowBetween("f", "alpha", "hq", "gamma", "plant", 80)
		if err != nil {
			t.Fatal(err)
		}
		trafgen.CBR(x.Net, f, 200, 10*sim.Millisecond, 0, 500*sim.Millisecond)
		x.Net.Run()
		return x.StateDigest()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed digests differ:\n%s\n----\n%s", a, b)
	}
}

// TestInterASDualHomedFailover fails over a dual-homed site behind
// provisioned peerings, under each option, and reconciles: the boundary
// state must follow the site onto its backup PE, so that traffic from the
// far AS reaches it again — and the site's own traffic still leaves.
func TestInterASDualHomedFailover(t *testing.T) {
	for _, opt := range []InterASOption{OptionA, OptionB, OptionC} {
		t.Run("option"+opt.String(), func(t *testing.T) {
			x := buildThreeProvidersWith(t, opt, true)
			fwd, err := x.FlowBetween("fwd", "alpha", "hq", "gamma", "plant", 80)
			if err != nil {
				t.Fatal(err)
			}
			rev, err := x.FlowBetween("rev", "gamma", "plant", "alpha", "hq", 81)
			if err != nil {
				t.Fatal(err)
			}
			trafgen.CBR(x.Net, fwd, 200, 10*sim.Millisecond, 0, 2*sim.Second)
			trafgen.CBR(x.Net, rev, 200, 10*sim.Millisecond, 0, 2*sim.Second)
			var sent, delivered [2]int
			x.AS("alpha").At(sim.Second+5*sim.Millisecond, func() {
				if err := x.AS("gamma").FailSitePrimary("plant"); err != nil {
					t.Error(err)
				}
				x.ReconcilePeerings()
				for i, f := range []*trafgen.Flow{fwd, rev} {
					sent[i], delivered[i] = f.Stats.Sent, f.Stats.Delivered
				}
			})
			x.Net.Run()
			for i, f := range []*trafgen.Flow{fwd, rev} {
				// The packet sent at 1 s is still in flight at the failover.
				if delivered[i] < sent[i]-1 {
					t.Errorf("option %s flow %s: %d of %d delivered before the failover", opt, f.Stats.Name, delivered[i], sent[i])
				}
				// A packet already past the primary PE's boundary when it
				// fails may be lost; everything sent afterwards must arrive.
				after, got := f.Stats.Sent-sent[i], f.Stats.Delivered-delivered[i]
				if after < 90 || got < after-5 {
					t.Errorf("option %s flow %s: %d of %d delivered after the failover", opt, f.Stats.Name, got, after)
				}
			}
			for _, asn := range []string{"alpha", "beta", "gamma"} {
				if v := x.AS(asn).IsolationViolations; v != 0 {
					t.Errorf("option %s: %d isolation violations in %s", opt, v, asn)
				}
			}
		})
	}
}
