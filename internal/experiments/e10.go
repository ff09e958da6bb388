package experiments

import (
	"mplsvpn/internal/addr"
	"mplsvpn/internal/core"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/stats"
	"mplsvpn/internal/trafgen"
)

// E10Result carries the cross-carrier SLA numbers.
type E10Result struct {
	Table *stats.Table
	// VoiceP99 per configuration.
	VoiceP99  map[string]float64
	VoiceLoss map[string]float64
}

// E10MultiCarrier reproduces §5's closing claim: "The progress these
// QoS-related standards have made will allow service providers to extend
// SLAs from customer site to customer site and eventually across
// cooperative service provider boundaries. This cross-network SLA
// capability allows the building of VPNs using multiple carriers."
//
// One VPN spans two providers joined with an inter-AS option-A
// interconnect; each provider has a 10 Mb/s bottleneck. The SLA holds end
// to end only when *both* carriers run the QoS architecture — a single
// best-effort carrier in the chain breaks it (the weakest-link property
// that makes the cross-provider standards matter).
func E10MultiCarrier(dur sim.Time) *E10Result {
	if dur == 0 {
		dur = 5 * sim.Second
	}
	res := &E10Result{
		Table:     newClassTable("E10 — one VPN across two carriers (option A): per-class SLA vs carrier QoS"),
		VoiceP99:  map[string]float64{},
		VoiceLoss: map[string]float64{},
	}

	run := func(name string, s1, s2 core.SchedulerKind) {
		x := core.NewInterAS(100,
			[]string{"as1", "as2"},
			[]core.Config{{Seed: 1, Scheduler: s1}, {Seed: 2, Scheduler: s2}})

		for _, asn := range []string{"as1", "as2"} {
			b := x.AS(asn)
			b.AddPE(asn + "-PE")
			b.AddP(asn + "-P1")
			b.AddP(asn + "-P2")
			b.AddPE(asn + "-ASBR")
			b.Link(asn+"-PE", asn+"-P1", 100e6, sim.Millisecond, 1)
			b.Link(asn+"-P1", asn+"-P2", 10e6, sim.Millisecond, 1) // per-carrier bottleneck
			b.Link(asn+"-P2", asn+"-ASBR", 100e6, sim.Millisecond, 1)
			b.BuildProvider()
			b.DefineVPN("acme")
		}
		x.AS("as1").AddSite(core.SiteSpec{VPN: "acme", Name: "west", PE: "as1-PE",
			Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
		x.AS("as2").AddSite(core.SiteSpec{VPN: "acme", Name: "east", PE: "as2-PE",
			Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
		x.AS("as1").ConvergeVPNs()
		x.AS("as2").ConvergeVPNs()
		if _, err := x.AddPeering(core.PeeringSpec{ASA: "as1", ASBRA: "as1-ASBR", ASB: "as2", ASBRB: "as2-ASBR",
			VPNs: []string{"acme"}, Option: core.OptionA, Bandwidth: 100e6, Delay: 2 * sim.Millisecond}); err != nil {
			panic(err)
		}
		x.ReconcilePeerings()

		voice, _ := x.FlowBetween("voice", "as1", "west", "as2", "east", 5060)
		bulk, _ := x.FlowBetween("bulk", "as1", "west", "as2", "east", 80)
		voice.DSCP = 46 // EF
		bulk.DSCP = 0
		for i := 0; i < 4; i++ {
			trafgen.CBR(x.Net, voice, 160, 20*sim.Millisecond, sim.Time(i)*5*sim.Millisecond, dur)
		}
		trafgen.CBR(x.Net, bulk, 1400, 900*sim.Microsecond, 0, dur)
		x.Net.RunUntil(dur + sim.Second)

		classRow(res.Table, name, voice)
		classRow(res.Table, name, bulk)
		res.VoiceP99[name] = voice.Stats.Latency.Percentile(99)
		res.VoiceLoss[name] = voice.Stats.LossRate()
	}

	run("both-qos", core.SchedHybrid, core.SchedHybrid)
	run("as2-besteffort", core.SchedHybrid, core.SchedFIFO)
	run("both-besteffort", core.SchedFIFO, core.SchedFIFO)
	return res
}
