package experiments

import (
	"mplsvpn/internal/core"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/stats"
	"mplsvpn/internal/trafgen"
)

// E2Result carries the per-configuration voice metrics the benches assert
// on: the QoS architecture must protect voice; plain best effort must not.
type E2Result struct {
	Table *stats.Table
	// CDF compares the voice latency distribution of the FIFO baseline
	// and the full architecture — the E2 "figure".
	CDF *stats.Table
	// VoiceP99 and VoiceLoss per configuration name.
	VoiceP99  map[string]float64
	VoiceLoss map[string]float64
	BulkLoss  map[string]float64
}

// E2QoS reproduces the paper's core QoS claim (Fig. 4, §5): with DiffServ
// classification at the CE, DSCP->EXP mapping at the PE, and class-aware
// scheduling in the core, high-priority flows keep "a consistent level of
// service" through a congested backbone. Configurations sweep the
// scheduler ablation from DESIGN.md §4.3 plus the plain-IP baseline.
func E2QoS(dur sim.Time) *E2Result {
	if dur == 0 {
		dur = 5 * sim.Second
	}
	res := &E2Result{
		Table:     newClassTable("E2 — per-class service under a 10 Mb/s bottleneck at ~1.4x load"),
		VoiceP99:  map[string]float64{},
		VoiceLoss: map[string]float64{},
		BulkLoss:  map[string]float64{},
	}

	type config struct {
		name string
		cfg  core.Config
	}
	configs := []config{
		{"plain-ip-fifo", core.Config{Seed: 21, PlainIP: true, Scheduler: core.SchedFIFO}},
		{"mpls-fifo", core.Config{Seed: 22, Scheduler: core.SchedFIFO}},
		{"mpls-priority", core.Config{Seed: 23, Scheduler: core.SchedPriority}},
		{"mpls-wfq", core.Config{Seed: 24, Scheduler: core.SchedWFQ}},
		{"mpls-drr", core.Config{Seed: 25, Scheduler: core.SchedDRR}},
		{"mpls-hybrid", core.Config{Seed: 26, Scheduler: core.SchedHybrid}},
		{"mpls-hybrid-wred", core.Config{Seed: 27, Scheduler: core.SchedHybrid, WRED: true}},
		{"mpls-hybrid-noexp", core.Config{Seed: 28, Scheduler: core.SchedHybrid, DisableEXPMapping: true}},
	}

	voice := map[string]*stats.FlowStats{}
	for _, c := range configs {
		b := bottleneckBackbone(c.cfg)
		twoSiteVPN(b)
		w := startWorkload(b, dur, true)
		b.Net.RunUntil(dur + sim.Second)

		for _, f := range []*trafgen.Flow{w.voice, w.business, w.bulk} {
			classRow(res.Table, c.name, f)
		}
		res.VoiceP99[c.name] = w.voice.Stats.Latency.Percentile(99)
		res.VoiceLoss[c.name] = w.voice.Stats.LossRate()
		res.BulkLoss[c.name] = w.bulk.Stats.LossRate()
		voice[c.name] = w.voice.Stats
	}

	res.CDF = stats.NewTable("E2-figure — voice one-way latency CDF (ms): FIFO vs the QoS architecture",
		"percentile", "mpls-fifo", "mpls-hybrid")
	fifo, hybrid := &voice["mpls-fifo"].Latency, &voice["mpls-hybrid"].Latency
	for _, p := range []float64{10, 25, 50, 75, 90, 95, 99, 99.9} {
		res.CDF.AddRow(p, fifo.Percentile(p), hybrid.Percentile(p))
	}
	return res
}
