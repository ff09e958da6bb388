// Command vpnctl provisions and exercises an MPLS VPN backbone from a
// plain-text config (see internal/netconf for the directive reference),
// then prints a per-flow SLA report — the operator's view of the paper's
// architecture.
//
// Usage:
//
//	vpnctl -f network.conf [-sched hybrid] [-seed 1] [-v] [-dot topo.dot] [-metrics out.json] [-chaos faults.scn] [-intent desired.int]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"mplsvpn/internal/chaos"
	"mplsvpn/internal/core"
	"mplsvpn/internal/intent"
	"mplsvpn/internal/netconf"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/stats"
)

func main() {
	var (
		file  = flag.String("f", "", "config file (required)")
		sched = flag.String("sched", "hybrid", "scheduler: fifo|priority|wfq|drr|hybrid")
		seed  = flag.Uint64("seed", 1, "simulation seed")
		verb  = flag.Bool("v", false, "verbose: print router counters")
		dot   = flag.String("dot", "", "write a Graphviz rendering of the network to this file")
		met   = flag.String("metrics", "", "write a telemetry snapshot to this file after the run ('-' = stdout; a .json suffix selects JSON, anything else text)")
		chs   = flag.String("chaos", "", "fault scenario file to inject during the run (see internal/chaos for the DSL)")
		intf  = flag.String("intent", "", "declarative intent spec to reconcile onto the backbone (see internal/intent for the DSL)")
	)
	flag.Parse()
	if *file == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*file, *sched, *seed, *verb, *dot, *met, *chs, *intf); err != nil {
		fmt.Fprintln(os.Stderr, "vpnctl:", err)
		os.Exit(1)
	}
}

func schedKind(s string) (core.SchedulerKind, error) {
	for k := core.SchedFIFO; k <= core.SchedHybrid; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown scheduler %q", s)
}

func run(path, sched string, seed uint64, verbose bool, dotFile, metricsFile, chaosFile, intentFile string) error {
	kind, err := schedKind(sched)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var scenario *chaos.Scenario
	if chaosFile != "" {
		cf, err := os.Open(chaosFile)
		if err != nil {
			return err
		}
		scenario, err = chaos.ParseScenario(cf, chaosFile)
		cf.Close()
		if err != nil {
			return err
		}
	}

	var spec *intent.Spec
	if intentFile != "" {
		inf, err := os.Open(intentFile)
		if err != nil {
			return err
		}
		spec, err = intent.Parse(inf, intentFile)
		inf.Close()
		if err != nil {
			return err
		}
	}

	sc, err := netconf.Load(f, path, core.Config{Seed: seed, Scheduler: kind})
	if err != nil {
		return err
	}
	b := sc.B
	horizon := sc.Duration
	if scenario != nil && scenario.Duration()+sim.Second > horizon {
		horizon = scenario.Duration() + sim.Second
	}
	if metricsFile != "" || scenario != nil {
		b.EnableTelemetry(core.TelemetryOptions{Horizon: horizon, JournalCap: 4096})
	}
	var inj *chaos.Injector
	if scenario != nil {
		b.EnableResilience(core.ResilienceOptions{Policy: core.DegradeShrink, Horizon: horizon})
		if scenario.Surv != nil {
			surv := *scenario.Surv
			surv.Horizon = horizon
			b.EnableSurvivability(surv)
		}
		inj = chaos.New(b, scenario)
		inj.Schedule()
	}
	var rec *intent.Reconciler
	var srv *netconf.Server
	if spec != nil {
		store := intent.NewStore()
		if err := store.Put(spec); err != nil {
			return err
		}
		srv = netconf.NewServer(b)
		rec = intent.NewReconciler(srv, store, intent.Options{Horizon: horizon})
		if inj != nil {
			inj.Reconciler = rec
		}
		rec.Start()
	}
	for _, lsp := range sc.TELSPs {
		fmt.Printf("telsp %s: %s (%.0f b/s reserved)\n", lsp.Name, lsp.Path.String(b.G), lsp.Bandwidth)
	}

	b.Net.RunUntil(horizon + sim.Second)

	if rec != nil {
		st := rec.Stats
		fmt.Printf("=== intent report (%s) ===\n", intentFile)
		fmt.Printf("converged=%t scans=%d batches=%d ops=%d retries=%d quarantined=%d\n",
			rec.Converged(), st.Scans, st.Batches, st.OpsApplied, st.Retries, st.Quarantined)
		fmt.Printf("sessions: %d commits, %d rollbacks (%d auto), %d ops applied\n",
			srv.Commits, srv.Rollbacks, srv.AutoRolled, srv.OpsApplied)
		q := rec.Quarantined()
		keys := make([]string, 0, len(q))
		for k := range q {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  QUARANTINED %s: %v\n", k, q[k])
		}
		fmt.Println()
	}

	fmt.Printf("\n=== SLA report (scheduler=%s, %v simulated) ===\n", sched, sc.Duration)
	for _, fl := range sc.Flows {
		line := fl.Stats.Summary()
		if fl.DSCP == packet.DSCPEF {
			q := stats.ScoreVoice(fl.Stats)
			line += fmt.Sprintf("  MOS=%.2f (%s)", q.MOS, q.Grade())
		}
		fmt.Println(line)
	}
	if len(sc.SLAs) > 0 {
		fmt.Println("\n=== SLA compliance ===")
		for _, fl := range sc.Flows {
			if target, ok := sc.SLAs[fl.Stats.Name]; ok {
				fmt.Println(target.Evaluate(fl.Stats).String())
			}
		}
	}

	fmt.Printf("\ninjected=%d delivered=%d dropped=%d isolation_violations=%d\n",
		b.Net.Injected, b.Net.Delivered, b.Net.Dropped, b.IsolationViolations)
	if b.IGP != nil {
		fmt.Println(b.IGP.String())
	}
	if b.LDP != nil {
		fmt.Printf("ldp: %d mapping messages, %d ILM entries network-wide\n",
			b.LDP.MessagesSent, b.LDP.TotalILMEntries())
	}
	fmt.Printf("bgp: %d updates, %d sessions\n", b.BGP.UpdatesSent, b.BGP.SessionCount())

	if inj != nil {
		fmt.Printf("\n=== chaos report ===\n%s\n", inj.Report())
		if st := b.SessionStats(); st.Flaps > 0 || st.Restores > 0 {
			fmt.Printf("sessions: %d flaps, %d restores, %d stale swept, %d withdrawn, %d damped, %d reused\n",
				st.Flaps, st.Restores, st.StaleSwept, st.Withdrawn, st.Damped, st.Reused)
		}
		for _, v := range inj.Checker.Violations {
			fmt.Println("  VIOLATION:", v)
		}
		if ints := b.TEIntents(); len(ints) > 0 {
			fmt.Println("TE intents after scenario:")
			for _, st := range ints {
				line := fmt.Sprintf("  %-12s %-8s %-9s %.0f/%.0f b/s", st.Name, st.VPN, st.State, st.Bandwidth, st.FullBandwidth)
				if st.Path != "" {
					line += "  via " + st.Path
				}
				fmt.Println(line)
			}
		}
		if verbose {
			fmt.Println("\n=== event journal ===")
			fmt.Print(b.Telemetry().Journal.Render())
		}
	}

	for _, tr := range sc.Traces {
		fmt.Printf("\n=== trace %s -> %s ===\n", tr.Site, tr.Dst)
		fmt.Print(b.TraceRoute(tr.Site, tr.Dst, tr.DSCP).String())
	}

	if dotFile != "" {
		if err := os.WriteFile(dotFile, []byte(b.DOT()), 0o644); err != nil {
			return fmt.Errorf("writing dot: %w", err)
		}
		fmt.Printf("\ntopology written to %s (render: dot -Tsvg %s)\n", dotFile, dotFile)
	}

	if verbose {
		fmt.Println("\n=== router counters ===")
		names := b.SiteNames()
		sort.Strings(names)
		for _, name := range names {
			ce, _ := b.Site(name)
			r := b.Net.Router(ce)
			fmt.Printf("%-16s delivered=%-6d policed=%-4d noroute=%d\n",
				r.Name, r.Delivered, r.DroppedPolicer, r.DroppedNoRoute)
		}
	}

	if metricsFile != "" {
		if err := writeMetrics(b, metricsFile); err != nil {
			return err
		}
	}
	return nil
}

// writeMetrics renders the telemetry snapshot to dst: "-" prints text to
// stdout, a .json filename gets the JSON encoding, anything else text.
func writeMetrics(b *core.Backbone, dst string) error {
	snap := b.TelemetrySnapshot()
	if snap == nil {
		return fmt.Errorf("telemetry not enabled")
	}
	if dst == "-" {
		fmt.Print(snap.Text())
		return nil
	}
	var data []byte
	if strings.HasSuffix(dst, ".json") {
		j, err := snap.JSON()
		if err != nil {
			return fmt.Errorf("encoding metrics: %w", err)
		}
		data = append(j, '\n')
	} else {
		data = []byte(snap.Text())
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		return fmt.Errorf("writing metrics: %w", err)
	}
	fmt.Printf("\ntelemetry snapshot written to %s\n", dst)
	return nil
}
