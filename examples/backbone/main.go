// Backbone: the full architecture on an ISP-scale topology — an 11-router
// national backbone (modelled on the classic Abilene shape), three customer
// VPNs with overlapping address space, CBQ classification at the CEs,
// DS-TE premium tunnels, ECMP in the core, a mid-run fibre cut with
// 150 ms detection, and an SLA report plus a delivery-rate figure.
//
//	go run ./examples/backbone
package main

import (
	"fmt"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/core"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/stats"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

func main() {
	b := core.NewBackbone(core.Config{
		Seed:                2026,
		Scheduler:           core.SchedHybrid,
		WRED:                true,
		DSTEPremiumFraction: 0.4,
	})

	// An Abilene-like national core: PEs at the coasts and Texas, P routers
	// inland. 155 Mb/s (OC-3-class) core, a few 55 Mb/s regional links.
	for _, pe := range []string{"SEA", "LAX", "NYC", "DCA", "HOU"} {
		b.AddPE(pe)
	}
	for _, p := range []string{"DEN", "KSC", "IND", "CHI", "ATL", "SNV"} {
		b.AddP(p)
	}
	type l struct {
		a, b string
		bw   float64
		ms   int
	}
	for _, e := range []l{
		{"SEA", "DEN", 155e6, 8}, {"SEA", "SNV", 155e6, 6},
		{"SNV", "LAX", 155e6, 3}, {"SNV", "DEN", 155e6, 7},
		{"LAX", "HOU", 155e6, 9}, {"DEN", "KSC", 155e6, 5},
		{"KSC", "HOU", 155e6, 5}, {"KSC", "IND", 155e6, 4},
		{"HOU", "ATL", 55e6, 7}, {"IND", "CHI", 155e6, 2},
		{"IND", "ATL", 55e6, 4}, {"CHI", "NYC", 155e6, 6},
		{"ATL", "DCA", 55e6, 5}, {"NYC", "DCA", 155e6, 2},
	} {
		b.Link(e.a, e.b, e.bw, sim.Time(e.ms)*sim.Millisecond, 1)
	}
	b.BuildProvider()

	// Three customers; "retailer" and "bank" both number out of 10.0.0.0/8.
	for _, v := range []string{"retailer", "bank", "media"} {
		b.DefineVPN(v)
	}
	voicePolicy := func() *qos.Classifier { return qos.VoiceDataPolicy(5060, 2e6/8) }
	sites := []core.SiteSpec{
		{VPN: "retailer", Name: "ret-hq", PE: "NYC", Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}, Classifier: voicePolicy()},
		{VPN: "retailer", Name: "ret-west", PE: "LAX", Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}},
		{VPN: "retailer", Name: "ret-south", PE: "HOU", Prefixes: []addr.Prefix{addr.MustParsePrefix("10.3.0.0/16")}},
		{VPN: "bank", Name: "bank-hq", PE: "NYC", Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}, Classifier: voicePolicy()},
		{VPN: "bank", Name: "bank-dc", PE: "DCA", Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}},
		{VPN: "bank", Name: "bank-west", PE: "SEA", Prefixes: []addr.Prefix{addr.MustParsePrefix("10.3.0.0/16")}},
		{VPN: "media", Name: "media-east", PE: "NYC", Prefixes: []addr.Prefix{addr.MustParsePrefix("172.20.0.0/16")}},
		{VPN: "media", Name: "media-west", PE: "SEA", Prefixes: []addr.Prefix{addr.MustParsePrefix("172.21.0.0/16")}},
	}
	for _, s := range sites {
		b.AddSite(s)
	}
	b.ConvergeVPNs()

	// Premium DS-TE tunnel for the bank's coast-to-coast voice.
	if _, err := b.SetupTELSPForVPN("bank-voice", "NYC", "SEA", "bank", 10e6, qos.ClassVoice, rsvp.SetupOptions{}); err != nil {
		fmt.Println("TE setup:", err)
	}

	// Workloads.
	const dur = 5 * sim.Second
	rng := b.E.Rand().Fork()
	mk := func(name, from, to string, port uint16, dscp packet.DSCP) *trafgen.Flow {
		f, err := b.FlowBetween(name, from, to, port)
		if err != nil {
			panic(err)
		}
		f.DSCP = dscp
		return f
	}
	voice := mk("bank-voice", "bank-hq", "bank-west", 5060, packet.DSCPEF)
	for i := 0; i < 16; i++ {
		trafgen.CBR(b.Net, voice, 160, 20*sim.Millisecond, sim.Time(i)*sim.Millisecond, dur)
	}
	trans := mk("bank-trans", "bank-hq", "bank-dc", 9000, packet.DSCPAF41)
	trafgen.Poisson(b.Net, trans, 300, 2000, 0, dur, rng)
	web := mk("ret-web", "ret-hq", "ret-west", 443, packet.DSCPAF21)
	trafgen.Poisson(b.Net, web, 600, 1500, 0, dur, rng)
	bulkFlow := mk("media-bulk", "media-east", "media-west", 80, packet.DSCPBestEffort)
	bulk := b.AttachAIMD(bulkFlow, 1400, dur)
	bulk.Start(0)
	scav := mk("ret-sync", "ret-hq", "ret-south", 873, packet.DSCPCS1)
	trafgen.CBR(b.Net, scav, 1400, 500*sim.Microsecond, 0, dur) // 22 Mb/s onto the 55M southern arc

	// Figure: voice deliveries per 100 ms through the fibre cut.
	ts := stats.NewTimeSeries("bank voice deliveries per 100 ms (CHI-NYC cut at t=2 s, 150 ms detection)", 100*sim.Millisecond)
	b.OnDeliver(func(_ topo.NodeID, p *packet.Packet) {
		if p.L4.DstPort == 5060 && p.OriginVPN == "bank" {
			ts.Incr(b.E.Now())
		}
	})

	// The fibre cut: CHI-NYC goes down at t=2 s.
	b.At(2*sim.Second, func() { b.FailLink("CHI", "NYC", 150*sim.Millisecond) })

	b.Net.RunUntil(dur + sim.Second)

	fmt.Println("backbone: 11-router national core, 3 VPNs, DS-TE, fibre cut at t=2s")
	fmt.Println()
	for _, f := range []*trafgen.Flow{voice, trans, web, bulkFlow, scav} {
		fmt.Println(f.Stats.Summary())
	}
	fmt.Printf("\nisolation violations: %d, igp msgs: %d, bgp updates: %d, TE LSPs: %d\n",
		b.IsolationViolations, b.IGP.MessagesSent, b.BGP.UpdatesSent, len(b.RSVP.LSPs()))
	fmt.Println()
	fmt.Println(ts.Render(40))
}
