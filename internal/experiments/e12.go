package experiments

import (
	"mplsvpn/internal/addr"
	"mplsvpn/internal/core"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/stats"
	"mplsvpn/internal/trafgen"
)

// E12Result carries the protection-comparison numbers.
type E12Result struct {
	Table *stats.Table
	// Loss[protection][detectMs].
	Loss map[string]map[int]float64
}

// E12FastReroute extends E8's restoration story with RFC 4090 facility
// backup: a pre-signalled bypass LSP around each core link lets the point
// of local repair detour labelled traffic within ~1 ms of loss-of-light,
// making the VPN's loss window independent of how long the IGP-wide
// reconvergence takes — the strongest form of the paper's "avoid ...
// disabled links".
func E12FastReroute(dur sim.Time) *E12Result {
	if dur == 0 {
		dur = 3 * sim.Second
	}
	res := &E12Result{
		Table: stats.NewTable("E12 — loss window: unprotected reroute vs FRR bypass (failure at t=dur/3)",
			"protection", "detect_ms", "sent", "lost", "loss%"),
		Loss: map[string]map[int]float64{"none": {}, "frr": {}},
	}

	run := func(frr bool, detectMs int) {
		b := core.NewBackbone(core.Config{Seed: 120 + uint64(detectMs), FRR: frr})
		b.AddPE("PE1")
		b.AddP("P1")
		b.AddP("P2")
		b.AddP("P3")
		b.AddPE("PE2")
		b.Link("PE1", "P1", 100e6, sim.Millisecond, 1)
		b.Link("P1", "P2", 100e6, sim.Millisecond, 1)
		b.Link("P2", "PE2", 100e6, sim.Millisecond, 1)
		b.Link("P1", "P3", 100e6, sim.Millisecond, 5)
		b.Link("P3", "P2", 100e6, sim.Millisecond, 5)
		b.BuildProvider()
		b.DefineVPN("acme")
		b.AddSite(core.SiteSpec{VPN: "acme", Name: "west", PE: "PE1",
			Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
		b.AddSite(core.SiteSpec{VPN: "acme", Name: "east", PE: "PE2",
			Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
		b.ConvergeVPNs()

		f, _ := b.FlowBetween("f", "west", "east", 80)
		trafgen.CBR(b.Net, f, 200, 2*sim.Millisecond, 0, dur)
		b.At(dur/3, func() { b.FailLink("P1", "P2", sim.Time(detectMs)*sim.Millisecond) })
		b.Net.Run()

		name := "none"
		if frr {
			name = "frr"
		}
		res.Loss[name][detectMs] = f.Stats.LossRate()
		res.Table.AddRow(name, detectMs, f.Stats.Sent,
			f.Stats.Sent-f.Stats.Delivered, f.Stats.LossRate()*100)
	}

	for _, detect := range []int{100, 300, 1000} {
		run(false, detect)
		run(true, detect)
	}
	return res
}
