package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mplsvpn/internal/experiments"
	"mplsvpn/internal/sim"
)

// BenchReport is the machine-readable performance snapshot written to
// BENCH_<n>.json by `vpnbench -perf`. It carries the numbers the
// allocation-budget gate tracks across commits: forwarding-decision cost
// (E4), full data-plane throughput and allocation rate on the 200-site
// backbone (E17), and the sharded engine's throughput (E15).
//
// Throughput is gated in packets per second — the work — never in events
// per second: how many events a packet costs is a property of the engine
// (the fused hop halved it), so an events/s comparison across commits reads
// an engine improvement as a regression, or hides a real one behind extra
// events. Events per packet is recorded beside it as an exact figure
// (EventsPerPkt): the simulation is deterministic, so any change in it is a
// change in the algorithm, and the gate fails until a deliberate BENCH
// re-baseline explains it.
type BenchReport struct {
	Generated  string `json:"generated"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// HostCPUs is runtime.NumCPU() — recorded so a snapshot from a laptop
	// is never silently compared against one from a build server.
	HostCPUs int `json:"host_cpus"`
	// SectionGoMaxProcs records the GOMAXPROCS each section actually ran
	// under. The comparison gate refuses to score a section against a
	// previous snapshot taken at a different core count: wall-clock
	// numbers across core counts are different experiments, not a
	// regression signal.
	SectionGoMaxProcs map[string]int     `json:"section_gomaxprocs"`
	E4NsPerOp         map[string]float64 `json:"e4_ns_per_op"`
	// Backbone200 is the pooled 200-site run.
	Backbone200 BenchDataPlane `json:"backbone200"`
	// Unpooled200 is the same workload with freelists disabled (ablation).
	Unpooled200 BenchDataPlane `json:"unpooled200"`
	// E15EventsPerSec and E15PktsPerSec keys are "serial" and "shards-<n>".
	E15EventsPerSec map[string]float64 `json:"e15_events_per_sec"`
	E15PktsPerSec   map[string]float64 `json:"e15_pkts_per_sec"`
	// EventsPerPkt is executed events per delivered packet, exact. Keys are
	// "backbone200", "e15.serial" and "e15.shards-<n>".
	EventsPerPkt map[string]float64 `json:"events_per_pkt"`
	// E22Scaling is the GOMAXPROCS x shards scaling curve.
	E22Scaling BenchScaling `json:"e22_scaling"`
	// E19Soak is the day-in-the-life SLA scorecard under checkpoint/resume.
	E19Soak BenchSoak `json:"e19_soak"`
	// E20ControlPlane is the million-route control-plane scaling snapshot.
	E20ControlPlane BenchControlPlane `json:"e20_control_plane"`
	// E21InterAS is the multi-carrier survivability scorecard per RFC 4364
	// option.
	E21InterAS BenchInterAS `json:"e21_interas"`
}

// BenchInterAS summarizes E21: a full transit-AS outage under peak load,
// scored per interconnect option ("optionA", "optionB", "optionC"). The
// gate enforces SLA conformance on the surviving providers, serial-vs-
// 8-shard digest equality, and a real (detected, failed-over, recovered)
// outage in every run.
type BenchInterAS struct {
	Conform      map[string]bool    `json:"conform"`
	DigestMatch  map[string]bool    `json:"digest_match"`
	Flaps        map[string]int     `json:"peering_flaps"`
	Failovers    map[string]int     `json:"failovers"`
	Reinstalls   map[string]int     `json:"reinstalls"`
	VoiceLossPct map[string]float64 `json:"voice_loss_pct"`
	VoiceP99Ms   map[string]float64 `json:"voice_p99_ms"`
	Violations   int                `json:"invariant_violations"`
}

// BenchControlPlane summarizes the E20 headline build (10k PEs / 1k VPNs /
// 1M VPN-IPv4 routes through clustered reflection) and the incremental
// SPF/CSPF speedups, plus the oracle verdicts the gate enforces.
type BenchControlPlane struct {
	PEs               int     `json:"pes"`
	VPNs              int     `json:"vpns"`
	Routes            int     `json:"routes"`
	SessionsClustered int     `json:"sessions_clustered"`
	SessionsFullMesh  int     `json:"sessions_full_mesh"`
	ConvergeSec       float64 `json:"converge_sec"`
	Updates           int     `json:"updates"`
	LoopPrevented     int     `json:"loop_prevented"`
	BytesPerRoute     float64 `json:"bytes_per_route"`
	ISPFSpeedup       float64 `json:"ispf_speedup"`
	ICSPFSpeedup      float64 `json:"icspf_speedup"`
	MeshEquivalent    bool    `json:"mesh_equivalent"`
	ISPFOracleOK      bool    `json:"ispf_oracle_ok"`
	ICSPFOracleOK     bool    `json:"icspf_oracle_ok"`
}

// BenchSoak summarizes the E19 day-in-the-life run: the checkpoint-protocol
// accounting and the per-class SLA conformance the gate enforces.
type BenchSoak struct {
	Checkpoints int     `json:"checkpoints"`
	Cycles      int     `json:"crash_resume_cycles"`
	ReplayedMs  float64 `json:"replayed_ms"`
	DigestMatch bool    `json:"digest_match"`
	Violations  int     `json:"invariant_violations"`
	// Conform maps plane -> every-class-SLA-met ("mpls-te", "overlay-ipsec").
	Conform map[string]bool `json:"conform"`
	// VoiceLossPct and VoiceP99Ms track the headline class per plane.
	VoiceLossPct map[string]float64 `json:"voice_loss_pct"`
	VoiceP99Ms   map[string]float64 `json:"voice_p99_ms"`
}

// BenchScaling summarizes the E22 core-count sweep. Keys are
// "gmp<g>/serial" and "gmp<g>/shards-<k>"; speedups are always against the
// serial baseline at the same GOMAXPROCS.
type BenchScaling struct {
	HostCPUs     int                `json:"host_cpus"`
	EventsPerSec map[string]float64 `json:"events_per_sec"`
	PktsPerSec   map[string]float64 `json:"pkts_per_sec"`
	Speedup      map[string]float64 `json:"speedup"`
	AllIdentical bool               `json:"all_identical"`
}

// BenchDataPlane summarizes one measured data-plane run.
type BenchDataPlane struct {
	PPS          float64 `json:"pps"`
	NsPerPkt     float64 `json:"ns_per_pkt"`
	EventsPerSec float64 `json:"events_per_sec"`
	AllocsPerPkt float64 `json:"allocs_per_pkt"`
	GCPauseMs    float64 `json:"gc_pause_ms"`
}

// maxAllocsPerPkt is the gate's allocation budget for the pooled data
// plane. Steady state is zero; the budget absorbs one-time growth
// (pool warm-up, queue rings, heap backing arrays) amortized over the run.
const maxAllocsPerPkt = 0.5

// maxPPSRegression is the fractional throughput loss versus the previous
// BENCH_<n>.json that fails the gate. Wall-clock numbers are noisy on
// shared machines, so the bar is deliberately loose; the allocation budget
// above is the precise gate.
const maxPPSRegression = 0.35

func dataPlaneFromRun(r experiments.E17Run) BenchDataPlane {
	d := BenchDataPlane{
		PPS:          r.PPS,
		EventsPerSec: r.EventsPerSec,
		AllocsPerPkt: r.AllocsPerPkt,
		GCPauseMs:    r.GCPauseMs,
	}
	if r.PPS > 0 {
		d.NsPerPkt = 1e9 / r.PPS
	}
	return d
}

// runPerf measures the perf suite, writes BENCH_<n>.json, compares against
// the previous snapshot, and (when gate is set) returns non-zero on a
// budget violation or a large throughput regression.
func runPerf(dir string, gate bool) int {
	fmt.Println("perf: E4 forwarding-decision cost...")
	e4 := experiments.E4Forwarding(nil, 500_000)
	fmt.Println(e4.Table.String())

	fmt.Println("perf: E17 data-plane throughput + pooling ablation...")
	e17 := experiments.E17ZeroAllocDataPlane(200*sim.Millisecond, []int{experiments.ScalingSites})
	fmt.Println(e17.Scaling.String())
	fmt.Println(e17.Ablation.String())

	fmt.Println("perf: E15 sharded throughput...")
	e15, e15pkts, perPkt := map[string]float64{}, map[string]float64{}, map[string]float64{}
	for _, shards := range []int{0, 8} {
		r := experiments.RunScaling(experiments.ScalingSites, shards, 0, 200*sim.Millisecond)
		name := "serial"
		if shards > 0 {
			name = fmt.Sprintf("shards-%d", shards)
		}
		e15[name] = float64(r.Events) / r.Wall.Seconds()
		e15pkts[name] = float64(r.Delivered) / r.Wall.Seconds()
		perPkt["e15."+name] = float64(r.Events) / float64(r.Delivered)
		fmt.Printf("  %-9s %12.0f pkts/sec %12.0f events/sec %8.3f events/pkt\n",
			name, e15pkts[name], e15[name], perPkt["e15."+name])
	}
	fmt.Println()

	fmt.Println("perf: E22 scaling curve (GOMAXPROCS x shards)...")
	e22 := experiments.E22ParallelSweep(0, nil, nil)
	fmt.Println(e22.Table.String())

	fmt.Println("perf: E19 day-in-the-life soak (checkpointed)...")
	// The checkpoint store outlives the run so a failed digest gate can
	// bisect it for the first divergent window.
	e19Dir, err := os.MkdirTemp("", "vpnbench-e19-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpnbench:", err)
		return 1
	}
	defer os.RemoveAll(e19Dir)
	e19, err := experiments.E19DayInTheLife(e19Dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpnbench: e19:", err)
		return 1
	}
	fmt.Println(e19.Table.String())
	fmt.Printf("  %d checkpoints, %d crash/resume cycles, %.0f ms replayed, digest match: %t\n\n",
		e19.Checkpoints, e19.Cycles, e19.ReplayedMs, e19.DigestMatch)

	fmt.Println("perf: E21 inter-AS survivability (full transit-AS outage)...")
	e21, err := experiments.E21InterASSurvivability()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpnbench: e21:", err)
		return 1
	}
	fmt.Println(e21.Table.String())
	for _, name := range []string{"optionA", "optionB", "optionC"} {
		fmt.Printf("  %-8s conform=%t digest_match=%t flaps=%d failovers=%d reinstalls=%d\n",
			name, e21.Conform[name], e21.DigestMatch[name],
			e21.Flaps[name], e21.Failovers[name], e21.Reinstalls[name])
	}
	fmt.Println()

	fmt.Println("perf: E20 million-route control plane (full headline)...")
	e20 := experiments.E20ControlPlaneScaling(true)
	fmt.Println(e20.Comparison.String())
	fmt.Println(e20.Headline.String())
	fmt.Println(e20.ISPF.String())

	// Every section above runs at the ambient GOMAXPROCS except E22,
	// which sweeps its own values and compares only within each one.
	sections := map[string]int{}
	for _, s := range []string{"e4", "e15", "e17", "e19", "e20", "e21", "e22"} {
		sections[s] = gomaxprocs()
	}
	rep := &BenchReport{
		Generated:         time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:        gomaxprocs(),
		HostCPUs:          runtime.NumCPU(),
		SectionGoMaxProcs: sections,
		E4NsPerOp:         e4.NsPerOp,
		E15EventsPerSec:   e15,
		E15PktsPerSec:     e15pkts,
		EventsPerPkt:      perPkt,
		E22Scaling: BenchScaling{
			HostCPUs:     e22.HostCPUs,
			EventsPerSec: map[string]float64{},
			PktsPerSec:   map[string]float64{},
			Speedup:      map[string]float64{},
			AllIdentical: e22.AllIdentical,
		},
		E19Soak: BenchSoak{
			Checkpoints:  e19.Checkpoints,
			Cycles:       e19.Cycles,
			ReplayedMs:   e19.ReplayedMs,
			DigestMatch:  e19.DigestMatch,
			Violations:   e19.Violations,
			Conform:      e19.Conform,
			VoiceLossPct: map[string]float64{},
			VoiceP99Ms:   map[string]float64{},
		},
	}
	for plane := range e19.LossPct {
		rep.E19Soak.VoiceLossPct[plane] = e19.LossPct[plane]["voice"]
		rep.E19Soak.VoiceP99Ms[plane] = e19.P99Ms[plane]["voice"]
	}
	for _, run := range e22.Runs {
		name := "serial"
		if run.Shards > 0 {
			name = fmt.Sprintf("shards-%d", run.Shards)
		}
		key := fmt.Sprintf("gmp%d/%s", run.GoMaxProcs, name)
		rep.E22Scaling.EventsPerSec[key] = run.EventsPerSec
		rep.E22Scaling.PktsPerSec[key] = run.PktsPerSec
		if run.Shards > 0 {
			rep.E22Scaling.Speedup[key] = run.Speedup
		}
	}
	rep.E21InterAS = BenchInterAS{
		Conform:      e21.Conform,
		DigestMatch:  e21.DigestMatch,
		Flaps:        e21.Flaps,
		Failovers:    e21.Failovers,
		Reinstalls:   e21.Reinstalls,
		VoiceLossPct: map[string]float64{},
		VoiceP99Ms:   map[string]float64{},
		Violations:   e21.Violations,
	}
	for opt := range e21.LossPct {
		rep.E21InterAS.VoiceLossPct[opt] = e21.LossPct[opt]["voice"]
		rep.E21InterAS.VoiceP99Ms[opt] = e21.P99Ms[opt]["voice"]
	}
	rep.E20ControlPlane = BenchControlPlane{
		PEs:               e20.HeadlinePEs,
		VPNs:              e20.HeadlineVPNs,
		Routes:            e20.HeadlineRoutes,
		SessionsClustered: e20.SessionsClustered,
		SessionsFullMesh:  e20.SessionsFullMesh,
		ConvergeSec:       e20.HeadlineConvergeSec,
		Updates:           e20.HeadlineUpdates,
		LoopPrevented:     e20.LoopPrevented,
		BytesPerRoute:     e20.BytesPerRoute,
		ISPFSpeedup:       e20.ISPFSpeedup,
		ICSPFSpeedup:      e20.ICSPFSpeedup,
		MeshEquivalent:    e20.MeshEquivalent,
		ISPFOracleOK:      e20.ISPFOracleOK,
		ICSPFOracleOK:     e20.ICSPFOracleOK,
	}
	var pooled, unpooled *experiments.E17Run
	for i := range e17.Runs {
		r := &e17.Runs[i]
		if r.Sites != experiments.ScalingSites {
			continue
		}
		if r.Config == "pooled" {
			pooled = r
		} else {
			unpooled = r
		}
	}
	if pooled != nil {
		rep.Backbone200 = dataPlaneFromRun(*pooled)
		perPkt["backbone200"] = float64(pooled.Events) / float64(pooled.Delivered)
	}
	if unpooled != nil {
		rep.Unpooled200 = dataPlaneFromRun(*unpooled)
	}

	prevPath, prev := latestBench(dir)
	out := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", nextBenchIndex(dir)))
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpnbench: marshal:", err)
		return 1
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "vpnbench:", err)
		return 1
	}
	fmt.Printf("perf snapshot written to %s\n", out)

	fail := false
	// The soak gate is exact, not statistical: the simulation is
	// deterministic, so a digest mismatch, a missed SLA, or a lost
	// checkpoint cycle is a real regression, never noise.
	if !rep.E19Soak.DigestMatch {
		fmt.Println("GATE: e19 checkpointed run diverged from the uninterrupted run")
		// Auto-localize: binary-search the run's checkpoint store for the
		// first window whose restored state leaves the reference trajectory,
		// so the failure output names a virtual-time window, not a whole day.
		if w, probes, err := experiments.LocalizeE19Divergence(e19Dir); err != nil {
			fmt.Printf("GATE: bisect could not localize the divergence: %v\n", err)
		} else {
			fmt.Printf("GATE: bisect localized the first divergence to (%.0fms, %.0fms] in %d probes\n",
				float64(w.Lo)/float64(sim.Millisecond), float64(w.Hi)/float64(sim.Millisecond), probes)
		}
		fail = true
	}
	if rep.E19Soak.Cycles < 3 {
		fmt.Printf("GATE: e19 completed %d crash/resume cycles, want >= 3\n", rep.E19Soak.Cycles)
		fail = true
	}
	if !rep.E19Soak.Conform["mpls-te"] {
		fmt.Println("GATE: e19 MPLS/TE plane missed its per-class SLAs")
		fail = true
	}
	if rep.E19Soak.Violations != 0 {
		fmt.Printf("GATE: e19 recorded %d invariant violations\n", rep.E19Soak.Violations)
		fail = true
	}
	if rep.Backbone200.AllocsPerPkt > maxAllocsPerPkt {
		fmt.Printf("GATE: pooled data plane allocates %.2f objects/pkt, budget %.2f\n",
			rep.Backbone200.AllocsPerPkt, maxAllocsPerPkt)
		fail = true
	}
	// E22 scaling gates. Determinism is exact: every cell of the sweep
	// must reproduce the serial fingerprint. The speedup bar depends on
	// what the host can physically deliver: with >= 8 real cores the
	// 8-shard engine must beat serial 4x at GOMAXPROCS=8; on smaller
	// hosts (where "parallelism" is time-slicing on the same silicon) the
	// bar is near-parity at GOMAXPROCS=1 — the sharded engine must not
	// tax the single-core case for headroom it cannot use.
	if !rep.E22Scaling.AllIdentical {
		fmt.Println("GATE: an e22 sweep cell diverged from the serial fingerprint")
		fail = true
	}
	if rep.HostCPUs >= 8 {
		if sp := e22.Speedup(8, 8); sp < 4 {
			fmt.Printf("GATE: e22 shards-8 at GOMAXPROCS=8 sped up %.2fx on %d CPUs, want >= 4x\n",
				sp, rep.HostCPUs)
			fail = true
		}
	} else {
		serial1 := e22.PktsPerSec(1, 0)
		shards8 := e22.PktsPerSec(1, 8)
		if serial1 > 0 && shards8 < serial1*0.80 {
			fmt.Printf("GATE: e22 shards-8 at GOMAXPROCS=1 runs at %.0f pkts/sec vs serial %.0f — more than 20%% single-core overhead\n",
				shards8, serial1)
			fail = true
		}
	}
	// E20 control-plane gates: the headline must really be a million-route
	// build, reflection must collapse the session count by two orders of
	// magnitude, the incremental recomputes must beat full recompute 10x,
	// and every oracle-equivalence check must have held.
	cp := &rep.E20ControlPlane
	if cp.Routes < 1_000_000 {
		fmt.Printf("GATE: e20 headline carried %d routes, want >= 1,000,000\n", cp.Routes)
		fail = true
	}
	if cp.SessionsClustered*100 > cp.SessionsFullMesh {
		fmt.Printf("GATE: e20 clustered sessions %d vs full mesh %d — less than a 100x drop\n",
			cp.SessionsClustered, cp.SessionsFullMesh)
		fail = true
	}
	if cp.ISPFSpeedup < 10 {
		fmt.Printf("GATE: e20 incremental SPF speedup %.1fx, want >= 10x\n", cp.ISPFSpeedup)
		fail = true
	}
	if cp.ICSPFSpeedup < 10 {
		fmt.Printf("GATE: e20 incremental CSPF speedup %.1fx, want >= 10x\n", cp.ICSPFSpeedup)
		fail = true
	}
	if !cp.MeshEquivalent {
		fmt.Println("GATE: e20 clustered best paths diverged from the full-mesh oracle")
		fail = true
	}
	if !cp.ISPFOracleOK || !cp.ICSPFOracleOK {
		fmt.Printf("GATE: e20 incremental recompute diverged from full (spf ok=%t, cspf ok=%t)\n",
			cp.ISPFOracleOK, cp.ICSPFOracleOK)
		fail = true
	}
	// E21 inter-AS gates: every RFC 4364 option must survive the full
	// transit-AS outage within its SLAs, the 8-shard run must reproduce the
	// serial digest byte for byte, and the outage must really have been
	// detected, failed over, and recovered — a quiet run proves nothing.
	for _, name := range []string{"optionA", "optionB", "optionC"} {
		if !rep.E21InterAS.Conform[name] {
			fmt.Printf("GATE: e21 %s missed its per-class SLAs on the surviving providers\n", name)
			fail = true
		}
		if !rep.E21InterAS.DigestMatch[name] {
			fmt.Printf("GATE: e21 %s 8-shard digest diverged from the serial run\n", name)
			fail = true
		}
		if rep.E21InterAS.Flaps[name] < 2 || rep.E21InterAS.Failovers[name] == 0 || rep.E21InterAS.Reinstalls[name] == 0 {
			fmt.Printf("GATE: e21 %s outage not exercised (flaps=%d failovers=%d reinstalls=%d)\n",
				name, rep.E21InterAS.Flaps[name], rep.E21InterAS.Failovers[name], rep.E21InterAS.Reinstalls[name])
			fail = true
		}
	}
	if rep.E21InterAS.Violations != 0 {
		fmt.Printf("GATE: e21 recorded %d invariant violations\n", rep.E21InterAS.Violations)
		fail = true
	}
	if prev != nil {
		fmt.Printf("comparison vs %s:\n", prevPath)
		if prev.HostCPUs != 0 && prev.HostCPUs != rep.HostCPUs {
			fmt.Printf("  note: host CPU count changed %d -> %d\n", prev.HostCPUs, rep.HostCPUs)
		}
		cmp := func(section, name string, old, new float64, higherBetter bool) {
			if old == 0 {
				return
			}
			// Refuse cross-core-count comparisons: a section measured at a
			// different GOMAXPROCS is a different experiment, and scoring
			// it would turn a hardware change into a phantom regression
			// (or mask a real one behind extra cores).
			if po, no := prev.sectionGomaxprocs(section), rep.sectionGomaxprocs(section); po != no {
				fmt.Printf("  %-34s skipped: %s ran at GOMAXPROCS %d, now %d\n", name, section, po, no)
				return
			}
			delta := (new - old) / old * 100
			fmt.Printf("  %-34s %12.1f -> %12.1f  (%+.1f%%)\n", name, old, new, delta)
			if gate && higherBetter && new < old*(1-maxPPSRegression) {
				fmt.Printf("GATE: %s regressed more than %.0f%%\n", name, maxPPSRegression*100)
				fail = true
			}
		}
		cmp("e17", "backbone200.pps", prev.Backbone200.PPS, rep.Backbone200.PPS, true)
		cmp("e17", "backbone200.allocs_per_pkt", prev.Backbone200.AllocsPerPkt, rep.Backbone200.AllocsPerPkt, false)
		cmp("e4", "e4.ilm_ns_per_op", prev.E4NsPerOp["ilm"], rep.E4NsPerOp["ilm"], false)
		cmp("e15", "e15.serial_pkts_per_sec", prev.E15PktsPerSec["serial"], rep.E15PktsPerSec["serial"], true)
		cmp("e22", "e22.gmp1_serial_pkts_per_sec",
			prev.E22Scaling.PktsPerSec["gmp1/serial"], rep.E22Scaling.PktsPerSec["gmp1/serial"], true)
		cmp("e22", "e22.gmp1_shards8_pkts_per_sec",
			prev.E22Scaling.PktsPerSec["gmp1/shards-8"], rep.E22Scaling.PktsPerSec["gmp1/shards-8"], true)
		// Exact, not statistical: same seed, same horizon, same counts.
		keys := make([]string, 0, len(rep.EventsPerPkt))
		for k := range rep.EventsPerPkt {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			old, ok := prev.EventsPerPkt[k]
			if !ok {
				continue
			}
			fmt.Printf("  %-34s %12.4f -> %12.4f\n", k+".events_per_pkt", old, rep.EventsPerPkt[k])
			if gate && old != rep.EventsPerPkt[k] {
				fmt.Printf("GATE: %s events per packet changed; the run is deterministic, so the engine or the data plane does different work per packet — re-baseline with `vpnbench -perf` and say why in CHANGES.md\n", k)
				fail = true
			}
		}
	}
	if fail && gate {
		fmt.Println("perf gate FAILED")
		return 1
	}
	if gate {
		fmt.Println("perf gate ok")
	}
	return 0
}

// latestBench loads the highest-numbered BENCH_<n>.json in dir, if any.
func latestBench(dir string) (string, *BenchReport) {
	idx := benchIndices(dir)
	if len(idx) == 0 {
		return "", nil
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", idx[len(idx)-1]))
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return "", nil
	}
	return path, &rep
}

func nextBenchIndex(dir string) int {
	idx := benchIndices(dir)
	if len(idx) == 0 {
		return 1
	}
	return idx[len(idx)-1] + 1
}

func benchIndices(dir string) []int {
	matches, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	var idx []int
	for _, m := range matches {
		base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "BENCH_"), ".json")
		if n, err := strconv.Atoi(base); err == nil {
			idx = append(idx, n)
		}
	}
	sort.Ints(idx)
	return idx
}

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

// sectionGomaxprocs returns the GOMAXPROCS a section ran under; snapshots
// from before per-section recording fall back to the report-wide value.
func (r *BenchReport) sectionGomaxprocs(section string) int {
	if v, ok := r.SectionGoMaxProcs[section]; ok {
		return v
	}
	return r.GoMaxProcs
}
