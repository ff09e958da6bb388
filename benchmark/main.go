// Command benchmark is the repository's benchmark: five named workloads,
// end-to-end metrics from untraced repetitions, per-layer metrics from a
// traced repetition plus isolated probes. BENCHMARK.json at the repository
// root declares the names; README.md in this directory explains them.
//
// The driver runs one workload per process:
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output, one JSON object. Everything
// meant for people goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Uint64("seed", 77, "input seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", float64(spec().RunSeconds), "host seconds of repetitions to measure")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from untraced repetitions; 1: per-layer metrics from a traced repetition")
		aa      = flag.Bool("aa", false, "run every workload twice back to back and fail if any end-to-end metric moves by more than its bound")
	)
	flag.Parse()

	if *aa {
		os.Exit(runAA(*seed, *seconds))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; BENCHMARK.json declares:\n", *name)
		for _, d := range spec().Workloads {
			fmt.Fprintf(os.Stderr, "  %-22s %s\n", d.Name, d.Why)
		}
		os.Exit(2)
	}
	// One core for everything that is timed. The host's cores are shared, and
	// with two of them the runtime's own concurrent work (the collector's
	// background workers, the scavenger, a second shard worker) lands on a
	// core whose speed changes from second to second: the same snapshot then
	// takes 10 to 35 ms and the same serial run 135k to 215k pkt/s. On one
	// core that work is serialised into the measurement, which repeats within
	// a few percent and counts every cycle the program spends.
	runtime.GOMAXPROCS(1)
	fmt.Fprintf(os.Stderr, "host_cpus=%d gomaxprocs=%d %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var res runResult
	if *trace == 0 {
		res = runEndToEnd(w, *seed, *seconds, 1, os.Stderr)
	} else {
		// Beside the binary, in the directory run.sh builds into.
		res, _ = runTraced(w, *seed, 1, filepath.Join(".bench_build", "trace_"+w.name+".json"), os.Stderr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runChild runs one workload in its own process, so peak RSS and heap state
// do not leak between workloads, and parses its result line.
func runChild(workload string, seed uint64, seconds float64) (runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return runResult{}, fmt.Errorf("%s: %w", workload, err)
	}
	var res runResult
	if err := json.Unmarshal(lastLine(out), &res); err != nil {
		return runResult{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, nil
}

func lastLine(out []byte) []byte {
	end := len(out)
	for end > 0 && out[end-1] == '\n' {
		end--
	}
	start := end
	for start > 0 && out[start-1] != '\n' {
		start--
	}
	return out[start:end]
}

// exactMetrics are the end-to-end metrics that measure a deterministic
// encoding, not the host: at one seed two runs of the same code must report
// the same value, whatever bound BENCHMARK.json allows a later change.
var exactMetrics = map[string]bool{"snapshot_bytes": true}

// runAA is the A/A check: every declared workload measured twice back to
// back, each run in its own process. The same code must agree with itself
// within each metric's own bound (exactly, for exactMetrics), or the harness
// is not believable on this host.
func runAA(seed uint64, seconds float64) int {
	s := spec()
	var passes [2]map[string]runResult
	for p := range passes {
		passes[p] = map[string]runResult{}
		for _, w := range s.Workloads {
			res, err := runChild(w.Name, seed, seconds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			passes[p][w.Name] = res
		}
	}

	bad := 0
	fmt.Printf("%-22s %-16s %-6s %14s %14s %8s %6s\n", "workload", "metric", "unit", "pass1", "pass2", "diff", "bound")
	for _, w := range s.Workloads {
		for p := range passes {
			if r := passes[p][w.Name]; !r.Correct {
				fmt.Printf("%-22s pass%d: %d of %d operations failed\n", w.Name, p+1, r.Failed, r.Attempted)
				bad++
			}
		}
		for _, m := range s.EndToEnd {
			a, b := passes[0][w.Name].Metrics[m.Name].Value, passes[1][w.Name].Metrics[m.Name].Value
			diff, bound := math.Abs(b-a)/a, m.Bound
			if exactMetrics[m.Name] {
				bound = 0
			}
			verdict := ""
			if diff > bound {
				verdict = "  OUTSIDE BOUND"
				bad++
			}
			fmt.Printf("%-22s %-16s %-6s %14.4f %14.4f %7.2f%% %5.0f%%%s\n",
				w.Name, m.Name, m.Unit, a, b, 100*diff, 100*bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("%d problem(s)\n", bad)
		return 1
	}
	return 0
}
