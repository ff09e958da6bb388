// Multicarrier: one VPN spanning three providers — the paper's §5 closing
// claim that QoS-capable MPLS VPNs "allow the building of VPNs using
// multiple carriers as necessary, an option not available with most frame
// relay offerings" — wired with the RFC 4364 inter-AS peering plane, one
// interconnect per option:
//
//	carrierA (ny)    --option B-- carrierT (pure transit)
//	carrierT         --option C-- carrierB (london)
//	carrierA         --option A-- carrierB (direct backup, abstractly dear)
//
// Voice normally crosses the cheap two-hop chain through the transit
// carrier. Mid-run the transit carrier suffers a total outage — every
// node at once; the inter-AS hello machine detects the silence, graceful
// restart carries the stale boundary state, and the selector moves the
// VPN onto the direct backup peering. When the transit carrier returns,
// the cheap path wins again.
//
//	go run ./examples/multicarrier
package main

import (
	"fmt"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/core"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/trafgen"
)

func main() {
	x := core.NewInterAS(7,
		[]string{"carrierA", "carrierT", "carrierB"},
		[]core.Config{
			{Seed: 1, Scheduler: core.SchedHybrid},
			{Seed: 2, Scheduler: core.SchedHybrid},
			{Seed: 3, Scheduler: core.SchedHybrid},
		})

	// Each carrier: edge PE — core — two ASBRs, 10 Mb/s core constraint.
	for _, asn := range []string{"carrierA", "carrierT", "carrierB"} {
		b := x.AS(asn)
		b.AddPE(asn + "-PE")
		b.AddP(asn + "-P")
		b.AddPE(asn + "-ASBR1")
		b.AddPE(asn + "-ASBR2")
		b.Link(asn+"-PE", asn+"-P", 100e6, sim.Millisecond, 1)
		b.Link(asn+"-P", asn+"-ASBR1", 10e6, 2*sim.Millisecond, 1)
		b.Link(asn+"-P", asn+"-ASBR2", 10e6, 2*sim.Millisecond, 1)
		b.BuildProvider()
		b.DefineVPN("worldcorp")
	}

	x.AS("carrierA").AddSite(core.SiteSpec{VPN: "worldcorp", Name: "ny", PE: "carrierA-PE",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	x.AS("carrierB").AddSite(core.SiteSpec{VPN: "worldcorp", Name: "london", PE: "carrierB-PE",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	for _, asn := range []string{"carrierA", "carrierT", "carrierB"} {
		x.AS(asn).ConvergeVPNs()
		if err := x.SetASTransit(asn, 0.002, 10e6); err != nil {
			panic(err)
		}
	}

	// One peering per RFC 4364 option: labeled eBGP into the transit
	// carrier, a stitched end-to-end label plane out of it, and a
	// back-to-back VRF link straight between the edge carriers as backup.
	for _, spec := range []core.PeeringSpec{
		{ASA: "carrierA", ASBRA: "carrierA-ASBR1", ASB: "carrierT", ASBRB: "carrierT-ASBR1",
			VPNs: []string{"worldcorp"}, Option: core.OptionB, Delay: 5 * sim.Millisecond},
		{ASA: "carrierT", ASBRA: "carrierT-ASBR2", ASB: "carrierB", ASBRB: "carrierB-ASBR1",
			VPNs: []string{"worldcorp"}, Option: core.OptionC, Delay: 5 * sim.Millisecond},
		{ASA: "carrierA", ASBRA: "carrierA-ASBR2", ASB: "carrierB", ASBRB: "carrierB-ASBR2",
			VPNs: []string{"worldcorp"}, Option: core.OptionA, Delay: 5 * sim.Millisecond,
			AbstractDelay: 0.050},
	} {
		if _, err := x.AddPeering(spec); err != nil {
			panic(err)
		}
	}
	x.ReconcilePeerings()
	x.EnableInterASSurvivability(core.InterASSurvivabilityOptions{
		Hello:           25 * sim.Millisecond,
		HoldMisses:      3,
		GracefulRestart: true,
		RestartTime:     400 * sim.Millisecond,
		Horizon:         5 * sim.Second,
	})

	voice, _ := x.FlowBetween("voice", "carrierA", "ny", "carrierB", "london", 5060)
	voice.DSCP = packet.DSCPEF
	bulk, _ := x.FlowBetween("bulk", "carrierA", "ny", "carrierB", "london", 80)
	for i := 0; i < 4; i++ {
		trafgen.CBR(x.Net, voice, 160, 20*sim.Millisecond, sim.Time(i)*5*sim.Millisecond, 4*sim.Second)
	}
	trafgen.CBR(x.Net, bulk, 1400, 2*sim.Millisecond, 0, 4*sim.Second)

	// The outage: every node and session of the transit carrier at once.
	x.AS("carrierA").At(1500*sim.Millisecond, func() {
		if err := x.FailAS("carrierT"); err != nil {
			panic(err)
		}
	})
	var midPath []int
	x.AS("carrierA").At(2800*sim.Millisecond, func() {
		midPath, _ = x.SelectedPath("worldcorp", "carrierB", "carrierA")
	})
	x.AS("carrierA").At(3*sim.Second, func() {
		if err := x.RestoreAS("carrierT", 100*sim.Millisecond); err != nil {
			panic(err)
		}
	})
	x.Net.RunUntil(5 * sim.Second)

	fmt.Println("multicarrier: ny (carrierA) <-> london (carrierB) via carrierT, one peering per RFC 4364 option")
	fmt.Println(voice.Stats.Summary())
	fmt.Println(bulk.Stats.Summary())
	fmt.Printf("\nmid-outage selection: peering path %v (direct backup)\n", midPath)
	post, _ := x.SelectedPath("worldcorp", "carrierB", "carrierA")
	fmt.Printf("post-restore selection: peering path %v (back through the transit carrier)\n", post)
	st := x.InterASStatsNow()
	fmt.Printf("peering flaps=%d restores=%d failovers=%d reinstalls=%d\n",
		st.PeeringFlaps, st.PeeringRestores, st.Failovers, st.Reinstalls)
	if voice.Stats.LossRate() < 0.20 && len(midPath) == 1 && len(post) == 2 {
		fmt.Println("OK: voice survived a total transit-carrier outage on the backup peering")
	}
	fmt.Println()
	fmt.Println(x.SelectionDigest())
}
