package experiments

import (
	"fmt"
	"time"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/core"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/stats"
	"mplsvpn/internal/trafgen"
)

// ScalingSites is the standard E15 topology size (paper-scale: a
// backbone carrier provisioning a couple hundred customer sites).
const ScalingSites = 200

// BuildScalingBackbone provisions the E15 testbed: an 8-router core ring
// with two cross chords, 16 PEs (two per P), and `sites` customer sites
// spread round-robin over 20 VPNs and all PEs. Every link has >= 1 ms of
// propagation delay, so topology partitioning keeps a 1 ms conservative
// lookahead at any shard count.
func BuildScalingBackbone(sites int, seed uint64) *core.Backbone {
	const nP, pePerP = 8, 2
	b := core.NewBackbone(core.Config{Seed: seed, Scheduler: core.SchedHybrid})
	for i := 0; i < nP; i++ {
		b.AddP(fmt.Sprintf("P%d", i))
	}
	for i := 0; i < nP; i++ {
		b.Link(fmt.Sprintf("P%d", i), fmt.Sprintf("P%d", (i+1)%nP), 10e9, 2*sim.Millisecond, 1)
	}
	for i := 0; i < nP/2; i++ { // chords for path diversity
		b.Link(fmt.Sprintf("P%d", i), fmt.Sprintf("P%d", i+nP/2), 10e9, 3*sim.Millisecond, 2)
	}
	nPE := nP * pePerP
	for i := 0; i < nPE; i++ {
		pe := fmt.Sprintf("PE%d", i)
		b.AddPE(pe)
		b.Link(pe, fmt.Sprintf("P%d", i%nP), 10e9, sim.Millisecond, 1)
	}
	b.BuildProvider()

	const nVPN = 20
	for v := 0; v < nVPN; v++ {
		b.DefineVPN(fmt.Sprintf("vpn%d", v))
	}
	for i := 0; i < sites; i++ {
		b.AddSite(core.SiteSpec{
			VPN:      fmt.Sprintf("vpn%d", i%nVPN),
			Name:     fmt.Sprintf("s%d", i),
			PE:       fmt.Sprintf("PE%d", i%nPE),
			Prefixes: []addr.Prefix{prefixForSite(i)},
		})
	}
	b.ConvergeVPNs()
	return b
}

// AttachScalingTraffic starts one CBR flow per site, each towards the
// next site of the same VPN (wrapping), with per-flow phase offsets so
// no two cross-shard packets ever share a nanosecond. Call it after
// EnableSharding so sources bind their home shard clocks.
func AttachScalingTraffic(b *core.Backbone, sites int, dur sim.Time) {
	const nVPN = 20
	for i := 0; i < sites; i++ {
		peer := i + nVPN // next site of the same VPN
		if peer >= sites {
			peer = i % nVPN
		}
		f, err := b.FlowBetween(fmt.Sprintf("f%d", i),
			fmt.Sprintf("s%d", i), fmt.Sprintf("s%d", peer), 5060)
		if err != nil {
			panic(err)
		}
		trafgen.CBR(b.Net, f, 200, sim.Millisecond, sim.Time(i)*137*sim.Microsecond, dur)
	}
}

// ScalingRun is one measured E15 run; shards == 0 means the serial
// engine. The fingerprint is the StateDigest, flows included, plus the
// packet counters — the byte surface the equivalence harness compares.
type ScalingRun struct {
	Shards      int
	Wall        time.Duration
	Events      int64
	Delivered   int64
	Fingerprint string `json:"-"`
}

// RunScaling executes the E15 workload once at the given shard count.
func RunScaling(sites, shards, workers int, dur sim.Time) *ScalingRun {
	b := BuildScalingBackbone(sites, 77)
	if shards > 0 {
		if _, err := b.EnableSharding(core.ShardingOptions{Shards: shards, Workers: workers}); err != nil {
			panic(err)
		}
	}
	AttachScalingTraffic(b, sites, dur)
	start := time.Now()
	b.Net.RunUntil(dur + 50*sim.Millisecond)
	wall := time.Since(start)

	// The flows are in StateDigest; the net counters are not, since the
	// net section depends on the shard count.
	fp := b.StateDigest() + fmt.Sprintf("net: injected=%d delivered=%d dropped=%d\n",
		b.Net.Injected, b.Net.Delivered, b.Net.Dropped)
	return &ScalingRun{
		Shards:      shards,
		Wall:        wall,
		Events:      int64(b.E.Executed()),
		Delivered:   int64(b.Net.Delivered),
		Fingerprint: fp,
	}
}

// E15Result is the parallel-scaling sweep: wall-clock, event throughput,
// speedup over serial, and a byte-level determinism verdict per shard
// count.
type E15Result struct {
	Table *stats.Table
	Sites int
	Runs  []*ScalingRun
	// Identical[i] reports whether Runs[i] produced the exact serial
	// fingerprint (digest + counters + per-flow stats).
	Identical []bool
}

// E15ParallelScaling sweeps the sharded engine over shardCounts on the
// 200-site topology and reports speedup and determinism against the
// serial baseline. Speedup is bounded by GOMAXPROCS: on a single-core
// host every configuration serializes onto one OS thread, so the column
// shows parallel overhead, not gain — the determinism verdict is the
// load-bearing result there.
func E15ParallelScaling(dur sim.Time, shardCounts []int, workers int) *E15Result {
	if dur == 0 {
		dur = 300 * sim.Millisecond
	}
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
	}
	res := &E15Result{
		Sites: ScalingSites,
		Table: stats.NewTable(
			fmt.Sprintf("E15 — parallel scaling, %d sites, %v of traffic", ScalingSites, dur),
			"config", "wall_ms", "events", "events_per_sec", "speedup", "identical"),
	}
	serial := RunScaling(ScalingSites, 0, 0, dur)
	res.Runs = append(res.Runs, serial)
	res.Identical = append(res.Identical, true)
	addRow := func(r *ScalingRun, identical bool) {
		name := "serial"
		if r.Shards > 0 {
			name = fmt.Sprintf("shards-%d", r.Shards)
		}
		ms := float64(r.Wall.Microseconds()) / 1e3
		eps := float64(r.Events) / r.Wall.Seconds()
		res.Table.AddRow(name, fmt.Sprintf("%.1f", ms), r.Events,
			fmt.Sprintf("%.0f", eps),
			fmt.Sprintf("%.2fx", float64(serial.Wall)/float64(r.Wall)),
			identical)
	}
	addRow(serial, true)
	for _, k := range shardCounts {
		r := RunScaling(ScalingSites, k, workers, dur)
		identical := r.Fingerprint == serial.Fingerprint
		res.Runs = append(res.Runs, r)
		res.Identical = append(res.Identical, identical)
		addRow(r, identical)
	}
	return res
}
