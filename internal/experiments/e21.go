package experiments

import (
	"fmt"
	"strings"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/chaos"
	"mplsvpn/internal/core"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/stats"
	"mplsvpn/internal/trafgen"
)

// E21 is the inter-AS survivability experiment — the paper's §5 claim
// ("this cross-network SLA capability allows the building of VPNs using
// multiple carriers") stressed to destruction. A three-carrier extranet
// (hq in alpha, plant in gamma, beta pure transit) carries a peak-load
// class mix across the carrier boundary; at 2500ms the whole transit AS
// goes dark at once — every node, every session. The inter-AS hello
// machine must detect the silence, graceful restart must hold the stale
// boundary state just long enough, and the cross-provider selector must
// move the extranet onto the direct backup peering; when beta returns at
// 5500ms the cheap path must win again. The same story is scored for each
// RFC 4364 interconnect option — A (back-to-back VRF subinterfaces),
// B (labeled eBGP between ASBRs), C (end-to-end VPN label with stitched
// transport) — and every option must keep its per-class SLAs on the
// surviving providers. Each option also runs on the 8-shard parallel
// backend, whose digest must equal the serial run byte for byte.

const e21Horizon = 7 * sim.Second

// e21Chaos is the shared fault script: the full peer-AS outage plus an
// intra-alpha link flap *during* the outage, forcing a survivor to rebuild
// its whole boundary label plane while the selector is already on backup.
const e21Chaos = `
survivability hello=20ms hold=3 restart=400ms gr=on
asfail beta at=2500ms
fail a-PE a-P1 at=3800ms detect=20ms
restore a-PE a-P1 at=4200ms detect=20ms
asrestore beta at=5500ms detect=100ms
`

// e21SLAs are the contractual per-class targets over the whole run. The
// loss budgets absorb the detection + graceful-restart blackhole (~500ms
// of an 7s run) on top of normal queueing; latency budgets must hold even
// while traffic takes the longer backup path.
func e21SLAs() map[string]stats.SLATarget {
	return map[string]stats.SLATarget{
		"voice":    {Name: "voice", MaxP99Ms: 40, MaxLoss: 0.15},
		"business": {Name: "business", MaxP99Ms: 80, MaxLoss: 0.15},
		"bulk":     {Name: "bulk", MinKbps: 4000},
	}
}

// E21Result is the multi-carrier survivability scorecard.
type E21Result struct {
	Table *stats.Table

	// SLA holds the whole-horizon per-class evaluation per option
	// ("optionA", "optionB", "optionC").
	SLA map[string]map[string]stats.SLAResult
	// Conform reports whether an option met every class SLA.
	Conform map[string]bool
	// LossPct and P99Ms carry the measured numbers per option and class.
	LossPct map[string]map[string]float64
	P99Ms   map[string]map[string]float64

	// Failover accounting per option.
	Flaps      map[string]int // peering sessions declared lost
	Restores   map[string]int // peering sessions re-established
	Failovers  map[string]int // cross-provider re-selections
	Reinstalls map[string]int // full boundary rebuilds

	// DigestMatch reports, per option, whether the 8-shard parallel run
	// reproduced the serial digest byte for byte.
	DigestMatch map[string]bool

	Violations int // invariant violations across every run (must be 0)
}

type e21Rig struct {
	x   *core.InterAS
	fl  map[string]*trafgen.Flow
	inj *chaos.Injector
}

// e21Build constructs the three-carrier extranet for one option. Alpha has
// a redundant core (the mid-outage flap must be survivable), beta is pure
// transit, gamma hosts the plant. The preferred route is the two-hop chain
// via beta; the direct alpha<->gamma peering is physically fine but
// abstractly expensive, so it carries traffic only when beta is gone.
func e21Build(opt core.InterASOption, shards, workers int) (*e21Rig, error) {
	sc, err := chaos.ParseScenario(strings.NewReader(e21Chaos), "e21")
	if err != nil {
		return nil, err
	}

	x := core.NewInterAS(210,
		[]string{"alpha", "beta", "gamma"},
		[]core.Config{
			{Seed: 211, Scheduler: core.SchedHybrid},
			{Seed: 212, Scheduler: core.SchedHybrid},
			{Seed: 213, Scheduler: core.SchedHybrid},
		})

	alpha := x.AS("alpha")
	alpha.AddPE("a-PE")
	alpha.AddP("a-P1")
	alpha.AddP("a-P2")
	alpha.AddPE("a-ASBR1")
	alpha.AddPE("a-ASBR2")
	alpha.Link("a-PE", "a-P1", 20e6, sim.Millisecond, 1)
	alpha.Link("a-PE", "a-P2", 20e6, sim.Millisecond, 1)
	alpha.Link("a-P1", "a-ASBR1", 20e6, sim.Millisecond, 1)
	alpha.Link("a-P2", "a-ASBR1", 20e6, sim.Millisecond, 1)
	alpha.Link("a-P1", "a-ASBR2", 20e6, sim.Millisecond, 1)
	alpha.Link("a-P2", "a-ASBR2", 20e6, sim.Millisecond, 1)
	alpha.BuildProvider()

	beta := x.AS("beta")
	beta.AddPE("b-ASBR1")
	beta.AddP("b-P")
	beta.AddPE("b-ASBR2")
	beta.Link("b-ASBR1", "b-P", 20e6, sim.Millisecond, 1)
	beta.Link("b-P", "b-ASBR2", 20e6, sim.Millisecond, 1)
	beta.BuildProvider()

	gamma := x.AS("gamma")
	gamma.AddPE("g-ASBR1")
	gamma.AddP("g-P")
	gamma.AddPE("g-PE")
	gamma.AddPE("g-ASBR2")
	gamma.Link("g-ASBR1", "g-P", 20e6, sim.Millisecond, 1)
	gamma.Link("g-P", "g-PE", 20e6, sim.Millisecond, 1)
	gamma.Link("g-P", "g-ASBR2", 20e6, sim.Millisecond, 1)
	gamma.BuildProvider()

	for _, asn := range []string{"alpha", "beta", "gamma"} {
		x.AS(asn).DefineVPN("extranet")
	}
	alpha.AddSite(core.SiteSpec{VPN: "extranet", Name: "hq", PE: "a-PE",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	gamma.AddSite(core.SiteSpec{VPN: "extranet", Name: "plant", PE: "g-PE",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	alpha.ConvergeVPNs()
	beta.ConvergeVPNs()
	gamma.ConvergeVPNs()

	for _, asn := range []string{"alpha", "beta", "gamma"} {
		x.AS(asn).EnableTelemetry(core.TelemetryOptions{Horizon: e21Horizon + sim.Second, JournalCap: 8192})
	}

	for _, asn := range []string{"alpha", "beta", "gamma"} {
		if err := x.SetASTransit(asn, 0.001, 20e6); err != nil {
			return nil, err
		}
	}
	for _, spec := range []core.PeeringSpec{
		{ASA: "alpha", ASBRA: "a-ASBR1", ASB: "beta", ASBRB: "b-ASBR1",
			VPNs: []string{"extranet"}, Option: opt, Delay: sim.Millisecond},
		{ASA: "beta", ASBRA: "b-ASBR2", ASB: "gamma", ASBRB: "g-ASBR1",
			VPNs: []string{"extranet"}, Option: opt, Delay: sim.Millisecond},
		{ASA: "alpha", ASBRA: "a-ASBR2", ASB: "gamma", ASBRB: "g-ASBR2",
			VPNs: []string{"extranet"}, Option: opt, Delay: sim.Millisecond,
			AbstractDelay: 0.050},
	} {
		if _, err := x.AddPeering(spec); err != nil {
			return nil, err
		}
	}
	x.ReconcilePeerings()

	surv := *sc.Surv
	surv.Horizon = e21Horizon + sim.Second
	alpha.EnableSurvivability(surv)
	x.EnableInterASSurvivability(core.HelloOptions{
		Hello:           25 * sim.Millisecond,
		HoldMisses:      3,
		GracefulRestart: true,
		RestartTime:     400 * sim.Millisecond,
		Horizon:         e21Horizon + sim.Second,
	})

	if shards > 0 {
		if _, err := x.EnableSharding(core.ShardingOptions{Shards: shards, Workers: workers}); err != nil {
			return nil, err
		}
	}

	voice, err := x.FlowBetween("voice", "alpha", "hq", "gamma", "plant", 5060)
	if err != nil {
		return nil, err
	}
	business, err := x.FlowBetween("business", "alpha", "hq", "gamma", "plant", 443)
	if err != nil {
		return nil, err
	}
	bulk, err := x.FlowBetween("bulk", "alpha", "hq", "gamma", "plant", 80)
	if err != nil {
		return nil, err
	}
	ret, err := x.FlowBetween("voice-return", "gamma", "plant", "alpha", "hq", 5061)
	if err != nil {
		return nil, err
	}
	voice.DSCP = packet.DSCPEF
	ret.DSCP = packet.DSCPEF
	business.DSCP = packet.DSCPAF41
	bulk.DSCP = packet.DSCPBestEffort

	// Peak load from the first tick: four voice trunks each way is the
	// paper's toll-bypass mix; business and bulk keep the boundary links
	// around half utilization so the failover happens under real queueing.
	for i := 0; i < 4; i++ {
		alpha.RegisterSource(trafgen.CBR(x.Net, voice, 160, 20*sim.Millisecond,
			sim.Time(i)*5*sim.Millisecond, e21Horizon))
		gamma.RegisterSource(trafgen.CBR(x.Net, ret, 160, 20*sim.Millisecond,
			sim.Time(i)*5*sim.Millisecond+sim.Millisecond, e21Horizon))
	}
	alpha.RegisterSource(trafgen.Poisson(x.Net, business, 400, 600, 0, e21Horizon, x.E.Rand().Fork()))
	// ~8 Mb/s of bulk: 1400 B every 1.4 ms.
	alpha.RegisterSource(trafgen.CBR(x.Net, bulk, 1400, 1400*sim.Microsecond, 0, e21Horizon))

	inj := chaos.New(alpha, sc)
	inj.InterAS = x
	inj.Schedule()
	return &e21Rig{
		x: x, inj: inj,
		fl: map[string]*trafgen.Flow{
			"voice": voice, "business": business, "bulk": bulk, "voice-return": ret,
		},
	}, nil
}

// e21Run builds and drives one full outage story.
func e21Run(opt core.InterASOption, shards, workers int) (*e21Rig, error) {
	rig, err := e21Build(opt, shards, workers)
	if err != nil {
		return nil, err
	}
	rig.x.Net.RunUntil(e21Horizon + sim.Second)
	if err := rig.x.Net.CheckConservation(); err != nil {
		return nil, err
	}
	return rig, nil
}

// E21InterASSurvivability runs the full peer-AS outage for each RFC 4364
// option, serially and on 8 shards.
func E21InterASSurvivability() (*E21Result, error) {
	res := &E21Result{
		Table: stats.NewTable("E21 — inter-AS survivability (full transit-AS outage, per option)",
			"option", "class", "sent", "loss%", "p50ms", "p99ms", "kb/s", "sla"),
		SLA:         map[string]map[string]stats.SLAResult{},
		Conform:     map[string]bool{},
		LossPct:     map[string]map[string]float64{},
		P99Ms:       map[string]map[string]float64{},
		Flaps:       map[string]int{},
		Restores:    map[string]int{},
		Failovers:   map[string]int{},
		Reinstalls:  map[string]int{},
		DigestMatch: map[string]bool{},
	}
	for _, opt := range []core.InterASOption{core.OptionA, core.OptionB, core.OptionC} {
		name := "option" + opt.String()

		rig, err := e21Run(opt, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		sharded, err := e21Run(opt, 8, 4)
		if err != nil {
			return nil, fmt.Errorf("%s sharded: %w", name, err)
		}
		res.DigestMatch[name] = rig.x.StateDigest() == sharded.x.StateDigest()
		res.Violations += len(rig.inj.Checker.Violations) + len(sharded.inj.Checker.Violations)

		st := rig.x.InterASStatsNow()
		res.Flaps[name] = st.PeeringFlaps
		res.Restores[name] = st.PeeringRestores
		res.Failovers[name] = st.Failovers
		res.Reinstalls[name] = st.Reinstalls

		res.SLA[name] = map[string]stats.SLAResult{}
		res.LossPct[name] = map[string]float64{}
		res.P99Ms[name] = map[string]float64{}
		pass := true
		for _, class := range []string{"voice", "business", "bulk", "voice-return"} {
			f := rig.fl[class]
			target, ok := e21SLAs()[class]
			if !ok { // the return trunk is held to the voice contract
				target = e21SLAs()["voice"]
			}
			r := target.Evaluate(f.Stats)
			res.SLA[name][class] = r
			res.LossPct[name][class] = f.Stats.LossRate() * 100
			res.P99Ms[name][class] = f.Stats.Latency.Percentile(99)
			pass = pass && r.Pass
			verdict := "pass"
			if !r.Pass {
				verdict = "FAIL " + strings.Join(r.Violations, "; ")
			}
			res.Table.AddRow(name, class,
				f.Stats.Sent,
				fmt.Sprintf("%.2f", f.Stats.LossRate()*100),
				fmt.Sprintf("%.2f", f.Stats.Latency.Percentile(50)),
				fmt.Sprintf("%.2f", f.Stats.Latency.Percentile(99)),
				fmt.Sprintf("%.0f", f.Stats.ThroughputBps()/1e3),
				verdict)
		}
		res.Conform[name] = pass
	}
	return res, nil
}
