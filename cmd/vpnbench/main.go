// Command vpnbench regenerates every experiment table in EXPERIMENTS.md:
// the reproduction harness for the paper's claims (see DESIGN.md §3).
//
// Usage:
//
//	vpnbench               # run all experiments
//	vpnbench -e e1,e5      # run a subset
//	vpnbench -json out.json  # machine-readable results
//	vpnbench -dur 10s      # longer traffic runs (E2/E3/E5)
//	vpnbench -cpuprofile cpu.pprof -e e20   # profile any run with pprof
//
// An unknown experiment name exits 2. A verdict the run prints that is
// false (an E22 cell that differs from serial, E19's or E21's digest
// match, E20's oracle equivalences) exits 1 after every table is printed.
// Wall-clock performance is measured by the repository benchmark
// (benchmark/), not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"mplsvpn/internal/experiments"
	"mplsvpn/internal/sim"
)

func main() {
	var (
		exps       = flag.String("e", "all", "comma-separated experiments to run (e1..e14, e16..e22 or all)")
		dur        = flag.Duration("dur", 5*time.Second, "simulated traffic duration for E2/E3/E5/E10")
		e1N        = flag.String("e1-sizes", "10,25,50,100,200", "E1 VPN sizes")
		shards     = flag.String("shards", "1,2,4,8", "E22 shard counts to sweep")
		gmps       = flag.String("gomaxprocs", "1,2,4,8", "E22 GOMAXPROCS values to sweep")
		jsonFile   = flag.String("json", "", "also write machine-readable results to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	)
	flag.Parse()

	code := 0
	defer func() { os.Exit(code) }()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpnbench: cpuprofile:", err)
			code = 1
			return
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "vpnbench: cpuprofile:", err)
			code = 1
			return
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vpnbench: memprofile:", err)
				code = 1
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "vpnbench: memprofile:", err)
				code = 1
			}
		}()
	}

	results := map[string]any{}
	// failed reports a printed verdict that is false; the run goes on so
	// every table still prints, and exits 1 at the end.
	failed := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "vpnbench: "+format+"\n", args...)
		code = 1
	}

	// E15 is the testbed E17 and E22 run on, not an experiment of its own.
	known := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e16", "e17", "e18", "e19", "e20", "e21", "e22"}
	want := map[string]bool{}
	if *exps == "all" {
		for _, e := range known {
			want[e] = true
		}
	} else {
		for _, e := range strings.Split(*exps, ",") {
			e = strings.TrimSpace(strings.ToLower(e))
			if !slices.Contains(known, e) {
				fmt.Fprintf(os.Stderr, "vpnbench: unknown experiment %q (want e1..e14, e16..e22 or all)\n", e)
				code = 2
				return
			}
			want[e] = true
		}
	}
	d := sim.Time(dur.Nanoseconds())

	if want["e1"] {
		var sizes []int
		for _, s := range strings.Split(*e1N, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil {
				fmt.Fprintf(os.Stderr, "vpnbench: bad -e1-sizes entry %q\n", s)
				os.Exit(2)
			}
			sizes = append(sizes, n)
		}
		res := experiments.E1Scalability(sizes)
		results["e1"] = res
		fmt.Println(res.Table.String())
	}
	if want["e2"] {
		res := experiments.E2QoS(d)
		results["e2"] = res
		fmt.Println(res.Table.String())
		fmt.Println(res.CDF.String())
	}
	if want["e3"] {
		res := experiments.E3IPsec(d)
		results["e3"] = res
		fmt.Println(res.Table.String())
		fmt.Printf("anti-replay drops (RFC 4303 window vs QoS reordering): %v\n\n", res.ReplayDrops)
		fmt.Println(res.Overhead.String())
	}
	if want["e4"] {
		res := experiments.E4Forwarding(nil, 0)
		results["e4"] = res
		fmt.Println(res.Table.String())
	}
	if want["e5"] {
		res := experiments.E5TrafficEngineering(d)
		results["e5"] = res
		fmt.Println(res.Table.String())
		fmt.Printf("TE long path used: %v\n\n", res.LongPathUsed)
	}
	if want["e6"] {
		res := experiments.E6Isolation(10, 6000)
		results["e6"] = res
		fmt.Println(res.Table.String())
		fmt.Printf("violations=%d wrong_reachability=%d\n\n", res.Violations, res.WrongReachability)
	}
	if want["e7"] {
		res := experiments.E7EdgeMapping()
		results["e7"] = res
		fmt.Println(res.Table.String())
	}
	if want["e8"] {
		res := experiments.E8Resilience(d)
		results["e8"] = res
		fmt.Println(res.Restoration.String())
		fmt.Println(res.Figure())
		fmt.Println(res.Scaling.String())
	}
	if want["e9"] {
		res := experiments.E9Ablations(d)
		results["e9"] = res
		fmt.Println(res.Table.String())
	}
	if want["e10"] {
		res := experiments.E10MultiCarrier(d)
		results["e10"] = res
		fmt.Println(res.Table.String())
	}
	if want["e11"] {
		res := experiments.E11VPNTiers(d)
		results["e11"] = res
		fmt.Println(res.Table.String())
		fmt.Printf("EF-marking bronze customer held to bronze service: %v\n\n", res.CheatBlocked)
	}
	if want["e12"] {
		res := experiments.E12FastReroute(d)
		results["e12"] = res
		fmt.Println(res.Table.String())
	}
	if want["e13"] {
		res := experiments.E13InterASOptions(d, 4)
		results["e13"] = res
		fmt.Println(res.Table.String())
	}
	if want["e14"] {
		res := experiments.E14FlapStorm(0)
		results["e14"] = res
		fmt.Println(res.Table.String())
		fmt.Printf("resilient run: %d retries, %d degradations, %d restores, %d invariant violations\n\n",
			res.Retries, res.Degradations, res.Restores, res.Violations)
	}

	if want["e16"] {
		res := experiments.E16GracefulRestart(0)
		results["e16"] = res
		fmt.Println(res.Table.String())
		fmt.Printf("gr-on retained %d stale routes; journal: %d session_flap, %d session_restored; %d invariant violations\n\n",
			res.StaleRetained, res.SessionFlapEvents, res.SessionRestoredEvents, res.Violations)
	}

	if want["e17"] {
		res := experiments.E17ZeroAllocDataPlane(0, nil)
		results["e17"] = res
		fmt.Println(res.Scaling.String())
		fmt.Println(res.Ablation.String())
	}

	if want["e18"] {
		res := experiments.E18TransactionalProvisioning(d)
		results["e18"] = res
		fmt.Println(res.Table.String())
		fmt.Printf("%d VPNs / %d sites declared; digests identical across clean and crashed runs: %t\n\n",
			res.VPNs, res.Sites, res.DigestMatch["kill-mid-commit"] && res.DigestMatch["kill-pre-commit"])
	}

	if want["e19"] {
		res, err := experiments.E19DayInTheLife("")
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpnbench: e19:", err)
			code = 1
			return
		}
		results["e19"] = res
		fmt.Println(res.Table.String())
		fmt.Printf("checkpoint protocol: %d checkpoints, %d crash/resume cycles, %.0f ms replayed, digest match: %t\n",
			res.Checkpoints, res.Cycles, res.ReplayedMs, res.DigestMatch)
		fmt.Printf("control plane: %d routes damped, %d reused, %d LSP reoptimizations, %d invariant violations\n\n",
			res.Suppressions, res.Reuses, res.Reoptimized, res.Violations)
		if !res.DigestMatch {
			failed("e19: the checkpointed day diverged from the uninterrupted day")
		}
	}

	if want["e20"] {
		// The paper-scale headline: 10,000 PEs and 1,000,000 VPN-IPv4
		// routes (TestE20ControlPlaneScaling runs the build scaled 10x down).
		res := experiments.E20ControlPlaneScaling(true)
		results["e20"] = res
		fmt.Println(res.Comparison.String())
		fmt.Println(res.Headline.String())
		fmt.Println(res.ISPF.String())
		fmt.Printf("clustered best paths identical to full mesh: %t; ISPF/ICSPF oracle equivalence: %t/%t\n\n",
			res.MeshEquivalent, res.ISPFOracleOK, res.ICSPFOracleOK)
		if !res.MeshEquivalent || !res.ISPFOracleOK || !res.ICSPFOracleOK {
			failed("e20: an oracle check failed (mesh=%t ispf=%t icspf=%t)",
				res.MeshEquivalent, res.ISPFOracleOK, res.ICSPFOracleOK)
		}
	}

	if want["e21"] {
		res, err := experiments.E21InterASSurvivability()
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpnbench: e21:", err)
			code = 1
			return
		}
		results["e21"] = res
		fmt.Println(res.Table.String())
		for _, name := range []string{"optionA", "optionB", "optionC"} {
			fmt.Printf("%-8s conform=%t serial==8-shard digest=%t flaps=%d failovers=%d reinstalls=%d\n",
				name, res.Conform[name], res.DigestMatch[name],
				res.Flaps[name], res.Failovers[name], res.Reinstalls[name])
			if !res.DigestMatch[name] {
				failed("e21: %s 8-shard digest diverged from the serial run", name)
			}
		}
		fmt.Printf("invariant violations across all runs: %d\n\n", res.Violations)
	}

	if want["e22"] {
		counts, ok := parseIntList(*shards)
		if !ok {
			fmt.Fprintf(os.Stderr, "vpnbench: bad -shards list %q\n", *shards)
			code = 2
			return
		}
		gmpList, ok := parseIntList(*gmps)
		if !ok {
			fmt.Fprintf(os.Stderr, "vpnbench: bad -gomaxprocs list %q\n", *gmps)
			code = 2
			return
		}
		res := experiments.E22ParallelSweep(0, gmpList, counts)
		results["e22"] = res
		fmt.Println(res.Table.String())
		if !res.AllIdentical {
			failed("e22: a sweep cell diverged from the serial fingerprint")
		}
	}

	if *jsonFile != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpnbench: marshal:", err)
			code = 1
			return
		}
		if err := os.WriteFile(*jsonFile, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "vpnbench:", err)
			code = 1
			return
		}
		fmt.Printf("results written to %s\n", *jsonFile)
	}
}

// parseIntList parses a comma-separated list of positive ints.
func parseIntList(s string) ([]int, bool) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n < 1 {
			return nil, false
		}
		out = append(out, n)
	}
	return out, true
}
