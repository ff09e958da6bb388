package experiments

import (
	"fmt"
	"runtime"
	"time"

	"mplsvpn/internal/sim"
	"mplsvpn/internal/stats"
)

// E17Run is one measured data-plane throughput run.
type E17Run struct {
	Config       string // "pooled" or "unpooled"
	Sites        int
	Delivered    int64   // packets delivered
	Events       int64   // engine events executed (exact: the run is deterministic)
	WallMs       float64 // wall-clock milliseconds
	PPS          float64 // delivered packets per wall-clock second
	EventsPerSec float64 // engine events per wall-clock second
	AllocsPerPkt float64 // heap objects allocated per delivered packet
	BytesPerPkt  float64 // heap bytes allocated per delivered packet
	GCPauseMs    float64 // total stop-the-world pause during the run
	GCCycles     uint32  // garbage collections during the run
}

// E17Result is the zero-allocation data-plane experiment: simulator
// throughput scaling with topology size, plus a pooled-vs-unpooled
// ablation quantifying what the freelists buy in allocation rate and GC
// pauses.
type E17Result struct {
	Scaling  *stats.Table
	Ablation *stats.Table
	Runs     []E17Run
}

// measureE17 runs the standard scaling workload once and samples the
// allocator around it.
func measureE17(config string, sites int, dur sim.Time, pooled bool) E17Run {
	b := BuildScalingBackbone(sites, 77)
	if !pooled {
		b.Net.DisablePooling()
	}
	AttachScalingTraffic(b, sites, dur)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	b.Net.RunUntil(dur + 50*sim.Millisecond)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	delivered := int64(b.Net.Delivered)
	r := E17Run{
		Config:    config,
		Sites:     sites,
		Delivered: delivered,
		Events:    int64(b.E.Executed()),
		WallMs:    float64(wall.Microseconds()) / 1e3,
		GCPauseMs: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		GCCycles:  after.NumGC - before.NumGC,
	}
	if wall > 0 {
		r.PPS = float64(delivered) / wall.Seconds()
		r.EventsPerSec = float64(r.Events) / wall.Seconds()
	}
	if delivered > 0 {
		r.AllocsPerPkt = float64(after.Mallocs-before.Mallocs) / float64(delivered)
		r.BytesPerPkt = float64(after.TotalAlloc-before.TotalAlloc) / float64(delivered)
	}
	return r
}

// E17ZeroAllocDataPlane measures the simulator's own packet throughput.
// The scaling sweep runs the pooled data plane at growing site counts;
// the ablation re-runs the largest size with pooling disabled (every
// packet and event heap-allocated and left to the collector), isolating
// the cost the zero-allocation work removed. Pooling is invisible to
// results by construction — the equivalence digests pin that — so the
// only deltas here are wall-clock, allocation rate, and GC pauses.
func E17ZeroAllocDataPlane(dur sim.Time, siteCounts []int) *E17Result {
	if dur == 0 {
		dur = 300 * sim.Millisecond
	}
	if len(siteCounts) == 0 {
		siteCounts = []int{50, 100, ScalingSites}
	}
	res := &E17Result{
		Scaling: stats.NewTable(
			fmt.Sprintf("E17 — data-plane throughput scaling, %v of traffic", dur),
			"sites", "delivered", "wall_ms", "pps", "events_per_sec", "allocs_per_pkt"),
		Ablation: stats.NewTable(
			"E17 — pooled vs unpooled ablation (largest topology)",
			"config", "pps", "allocs_per_pkt", "bytes_per_pkt", "gc_pause_ms", "gc_cycles"),
	}
	for _, sites := range siteCounts {
		r := measureE17("pooled", sites, dur, true)
		res.Runs = append(res.Runs, r)
		res.Scaling.AddRow(sites, r.Delivered, fmt.Sprintf("%.1f", r.WallMs),
			fmt.Sprintf("%.0f", r.PPS), fmt.Sprintf("%.0f", r.EventsPerSec),
			fmt.Sprintf("%.2f", r.AllocsPerPkt))
	}
	largest := siteCounts[len(siteCounts)-1]
	pooled := res.Runs[len(res.Runs)-1]
	unpooled := measureE17("unpooled", largest, dur, false)
	res.Runs = append(res.Runs, unpooled)
	for _, r := range []E17Run{pooled, unpooled} {
		res.Ablation.AddRow(r.Config, fmt.Sprintf("%.0f", r.PPS),
			fmt.Sprintf("%.2f", r.AllocsPerPkt), fmt.Sprintf("%.0f", r.BytesPerPkt),
			fmt.Sprintf("%.2f", r.GCPauseMs), r.GCCycles)
	}
	return res
}
