package experiments

import (
	"fmt"
	"runtime"
	"time"

	"mplsvpn/internal/sim"
	"mplsvpn/internal/stats"
)

// E22Run is one cell of the core-count sweep: a shard count executed under
// a fixed GOMAXPROCS, measured against the serial baseline at the same
// GOMAXPROCS (wall-clock comparisons across different core counts are
// meaningless — that is the whole point of the sweep).
type E22Run struct {
	GoMaxProcs   int
	Shards       int `json:"shards"` // 0 = serial engine
	Wall         time.Duration
	Events       int64
	Delivered    int64
	EventsPerSec float64
	PktsPerSec   float64
	// Speedup is serial wall / this wall at the same GOMAXPROCS.
	Speedup float64
	// Identical reports byte-equality with the serial fingerprint.
	Identical bool
}

// E22Result is the parallel scaling curve: GOMAXPROCS x shard count, with
// the per-core-count serial baseline and a global determinism verdict.
type E22Result struct {
	Table *stats.Table
	// HostCPUs is runtime.NumCPU() — the honest ceiling on real
	// parallelism. GOMAXPROCS above it measures oversubscription.
	HostCPUs     int
	Sites        int
	Runs         []E22Run
	AllIdentical bool
}

// E22ParallelSweep measures the sharded engine across GOMAXPROCS x shard
// counts on the 200-site topology. For every GOMAXPROCS it re-measures the
// serial baseline (the Go runtime's scheduling overhead moves with core
// count, so a baseline captured at one setting must never be compared to a
// parallel run at another), then sweeps the shard counts with the worker
// pool sized to GOMAXPROCS. Every run's fingerprint must match the serial
// one — the sweep doubles as a determinism torture test across scheduler
// configurations. GOMAXPROCS is restored before returning.
func E22ParallelSweep(dur sim.Time, gmps, shardCounts []int) *E22Result {
	if dur == 0 {
		dur = 200 * sim.Millisecond
	}
	if len(gmps) == 0 {
		gmps = []int{1, 2, 4, 8}
	}
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
	}
	res := &E22Result{
		HostCPUs:     runtime.NumCPU(),
		Sites:        ScalingSites,
		AllIdentical: true,
		Table: stats.NewTable(
			fmt.Sprintf("E22 — scaling curve, %d sites, %v of traffic, host has %d CPU(s)",
				ScalingSites, dur, runtime.NumCPU()),
			"gomaxprocs", "config", "wall_ms", "pkts_per_sec", "events_per_sec", "speedup", "identical"),
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var reference string // serial fingerprint; identical across all settings
	for _, gmp := range gmps {
		runtime.GOMAXPROCS(gmp)
		serial := RunScaling(ScalingSites, 0, dur)
		if reference == "" {
			reference = serial.Fingerprint
		}
		add := func(r *ScalingRun) {
			run := E22Run{
				GoMaxProcs:   gmp,
				Shards:       r.Shards,
				Wall:         r.Wall,
				Events:       r.Events,
				Delivered:    r.Delivered,
				EventsPerSec: float64(r.Events) / r.Wall.Seconds(),
				PktsPerSec:   float64(r.Delivered) / r.Wall.Seconds(),
				Speedup:      float64(serial.Wall) / float64(r.Wall),
				Identical:    r.Fingerprint == reference,
			}
			if !run.Identical {
				res.AllIdentical = false
			}
			res.Runs = append(res.Runs, run)
			name := "serial"
			if r.Shards > 0 {
				name = fmt.Sprintf("shards-%d", r.Shards)
			}
			res.Table.AddRow(gmp, name,
				fmt.Sprintf("%.1f", float64(r.Wall.Microseconds())/1e3),
				fmt.Sprintf("%.0f", run.PktsPerSec),
				fmt.Sprintf("%.0f", run.EventsPerSec),
				fmt.Sprintf("%.2fx", run.Speedup),
				run.Identical)
		}
		add(serial)
		for _, k := range shardCounts {
			// Workers sized to GOMAXPROCS (the engine's own default): the
			// sweep measures how the whole stack uses the cores it is given.
			add(RunScaling(ScalingSites, k, dur))
		}
	}
	return res
}
