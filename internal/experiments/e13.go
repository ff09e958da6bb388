package experiments

import (
	"fmt"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/core"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/stats"
	"mplsvpn/internal/trafgen"
)

// E13Result carries the inter-AS option comparison.
type E13Result struct {
	Table *stats.Table
	// Links maps each option ("A", "B", "C") to the inter-AS duplex links
	// its peering provisions for N VPNs.
	Links map[string]int
	// Delivered per option must match.
	Delivered map[string]int
}

// E13InterASOptions compares the three RFC 4364 inter-provider
// interconnect options for a growing number of shared VPNs, each wired by
// one AddPeering. Option A needs one interconnect subinterface and VRF per
// VPN at each ASBR beside the shared bearer; option B needs the one shared
// link and per-route label state at the ASBRs instead; option C carries the
// VPN label end to end and keeps only per-egress-PE transport stitches at
// the ASBRs. All three must deliver the same traffic — the §2.1
// provisioning-vs-state trade, replayed at the provider boundary the
// paper's §5 wants VPNs to cross.
func E13InterASOptions(dur sim.Time, numVPNs int) *E13Result {
	if dur == 0 {
		dur = sim.Second
	}
	if numVPNs == 0 {
		numVPNs = 4
	}
	res := &E13Result{
		Table: stats.NewTable("E13 — inter-AS options A, B and C with N shared VPNs",
			"option", "vpns", "interas_links", "asbr_vrfs", "asbr_ilm_entries", "delivered", "p50ms"),
		Links:     map[string]int{},
		Delivered: map[string]int{},
	}
	var names []string
	for v := 0; v < numVPNs; v++ {
		names = append(names, fmt.Sprintf("vpn%d", v))
	}

	build := func(seed uint64) *core.InterAS {
		x := core.NewInterAS(seed,
			[]string{"as1", "as2"},
			[]core.Config{{Seed: seed}, {Seed: seed + 1}})
		for _, asn := range []string{"as1", "as2"} {
			b := x.AS(asn)
			b.AddPE(asn + "-PE")
			b.AddP(asn + "-P")
			b.AddPE(asn + "-ASBR")
			b.Link(asn+"-PE", asn+"-P", 100e6, sim.Millisecond, 1)
			b.Link(asn+"-P", asn+"-ASBR", 100e6, sim.Millisecond, 1)
			b.BuildProvider()
		}
		for _, name := range names {
			for _, asn := range []string{"as1", "as2"} {
				x.AS(asn).DefineVPN(name)
			}
			x.AS("as1").AddSite(core.SiteSpec{VPN: name, Name: name + "-w", PE: "as1-PE",
				Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
			x.AS("as2").AddSite(core.SiteSpec{VPN: name, Name: name + "-e", PE: "as2-PE",
				Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
		}
		x.AS("as1").ConvergeVPNs()
		x.AS("as2").ConvergeVPNs()
		return x
	}

	for _, opt := range []core.InterASOption{core.OptionA, core.OptionB, core.OptionC} {
		x := build(131)
		linksBefore := x.G.NumLinks()
		if _, err := x.AddPeering(core.PeeringSpec{ASA: "as1", ASBRA: "as1-ASBR", ASB: "as2", ASBRB: "as2-ASBR",
			VPNs: names, Option: opt, Bandwidth: 100e6, Delay: sim.Millisecond}); err != nil {
			panic(err)
		}
		x.ReconcilePeerings()
		interASLinks := (x.G.NumLinks() - linksBefore) / 2 // duplex pairs

		var flows []*trafgen.Flow
		for v, name := range names {
			f, err := x.FlowBetween(name, "as1", name+"-w", "as2", name+"-e", uint16(5000+v))
			if err != nil {
				panic(err)
			}
			trafgen.CBR(x.Net, f, 300, 10*sim.Millisecond, 0, dur)
			flows = append(flows, f)
		}
		x.Net.Run()

		asbr2 := x.AS("as2").Router("as2-ASBR")
		delivered := 0
		p50s := 0.0
		for _, f := range flows {
			delivered += f.Stats.Delivered
			p50s += f.Stats.Latency.Percentile(50)
		}
		option := opt.String()
		res.Links[option] = interASLinks
		res.Delivered[option] = delivered
		res.Table.AddRow(option, numVPNs, interASLinks,
			len(asbr2.VRFs), asbr2.LFIB.ILMSize(), delivered, p50s/float64(len(flows)))
	}
	return res
}
