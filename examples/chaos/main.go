// Chaos: deterministic fault injection against a dual-path backbone.
// A scripted scenario flaps the primary path, crashes and restarts a P
// router, and cuts a site's access link — with a lossy control plane —
// while the resilience plane keeps the two TE intents alive: failed
// re-signals retry with backoff, a squeezed reservation degrades to a
// journaled smaller guarantee, and the full reservation is restored when
// capacity returns. The survivability directives sessionize the control
// plane: the P-router crash flaps BGP/LDP sessions, graceful restart
// retains the routes as stale across the outage, and the flap trains
// charge route-flap damping penalties. After every injected event the
// invariant checker proves no cross-VPN leakage, no forwarding loops,
// and per-port byte conservation.
//
//	go run ./examples/chaos
package main

import (
	"fmt"
	"strings"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/chaos"
	"mplsvpn/internal/core"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/trafgen"
)

// scenario mixes every fault type the injector knows; 22 operations total
// once the flap trains are expanded.
const scenario = `
survivability hello=20ms hold=3 restart=900ms gr=on
damping penalty=1000 suppress=1800 reuse=800 halflife=1500ms
ctrlloss 0.25 extra=150ms
flap PE1 P1 at=500ms count=5 down=80ms up=120ms detect=10ms jitter=30ms
crash P2 at=2200ms detect=50ms
restart P2 at=2700ms detect=50ms
cut a2 at=3s
uncut a2 at=3400ms
flap P1 PE2 at=3800ms count=3 down=60ms up=90ms detect=5ms jitter=20ms
fail PE1 P1 at=5s detect=20ms
restore PE1 P1 at=5300ms detect=20ms
`

func main() {
	const horizon = 7 * sim.Second
	b := core.NewBackbone(core.Config{Seed: 11, Scheduler: core.SchedHybrid})
	b.AddPE("PE1")
	b.AddP("P1")
	b.AddP("P2")
	b.AddPE("PE2")
	// Two disjoint 5 Mb/s paths: together the TE intents (3 + 3 Mb/s)
	// fit, but any single surviving path forces degradation.
	b.Link("PE1", "P1", 5e6, sim.Millisecond, 1)
	b.Link("P1", "PE2", 5e6, sim.Millisecond, 1)
	b.Link("PE1", "P2", 5e6, sim.Millisecond, 2)
	b.Link("P2", "PE2", 5e6, sim.Millisecond, 2)
	b.BuildProvider()

	b.DefineVPN("alpha")
	b.DefineVPN("beta")
	for _, s := range []struct{ vpn, name, pe, prefix string }{
		{"alpha", "a1", "PE1", "10.1.0.0/16"},
		{"alpha", "a2", "PE2", "10.2.0.0/16"},
		{"beta", "b1", "PE1", "10.3.0.0/16"},
		{"beta", "b2", "PE2", "10.4.0.0/16"},
	} {
		b.AddSite(core.SiteSpec{VPN: s.vpn, Name: s.name, PE: s.pe,
			Prefixes: []addr.Prefix{addr.MustParsePrefix(s.prefix)}})
	}
	b.ConvergeVPNs()

	tel := b.EnableTelemetry(core.TelemetryOptions{Horizon: horizon, JournalCap: 4096})
	b.EnableResilience(core.ResilienceOptions{
		Policy:       core.DegradeShrink,
		RestoreProbe: 250 * sim.Millisecond,
		Horizon:      horizon,
	})
	must(b.SetupTELSPForVPN("te-alpha", "PE1", "PE2", "alpha", 3e6, -1, rsvp.SetupOptions{}))
	must(b.SetupTELSPForVPN("te-beta", "PE1", "PE2", "beta", 3e6, -1, rsvp.SetupOptions{}))

	fa, _ := b.FlowBetween("alpha-traffic", "a1", "a2", 5060)
	fb, _ := b.FlowBetween("beta-traffic", "b1", "b2", 80)
	trafgen.CBR(b.Net, fa, 500, 5*sim.Millisecond, 0, horizon)
	trafgen.CBR(b.Net, fb, 1000, 5*sim.Millisecond, 0, horizon)

	sc, err := chaos.ParseScenario(strings.NewReader(scenario), "flap-storm")
	if err != nil {
		panic(err)
	}
	fmt.Printf("scenario %q: %d operations over %v\n\n", sc.Name, sc.EventCount(), sc.Duration())

	surv := *sc.Surv
	surv.Horizon = horizon
	b.EnableSurvivability(surv)
	inj := chaos.New(b, sc)
	inj.Schedule()
	b.Net.RunUntil(horizon + sim.Second)

	fmt.Println(inj.Report())
	for _, v := range inj.Checker.Violations {
		fmt.Println("  VIOLATION:", v)
	}

	fmt.Println("\nTE intents after the storm:")
	for _, st := range b.TEIntents() {
		line := fmt.Sprintf("  %-10s %-7s %-9s %.1f/%.1f Mb/s", st.Name, st.VPN, st.State,
			st.Bandwidth/1e6, st.FullBandwidth/1e6)
		if st.Path != "" {
			line += "  via " + st.Path
		}
		fmt.Println(line)
	}

	st := b.SessionStats()
	fmt.Printf("\nsessions: %d flaps, %d restores, %d stale swept, %d withdrawn, %d damped, %d reused\n",
		st.Flaps, st.Restores, st.StaleSwept, st.Withdrawn, st.Damped, st.Reused)

	fmt.Printf("\ntraffic: %s\n", fa.Stats.Summary())
	fmt.Printf("         %s\n", fb.Stats.Summary())
	fmt.Printf("isolation violations: %d\n", b.IsolationViolations)

	// The resilience story, straight from the journal.
	fmt.Println("\nresilience events (journal excerpt):")
	shown := 0
	for _, e := range tel.Journal.Events() {
		k := e.Kind.String()
		if k == "te_retry" || k == "te_degraded" || k == "te_restored" || k == "ctrl_loss" ||
			k == "session_flap" || k == "session_restored" || k == "route_damped" || k == "route_reused" {
			fmt.Println("  " + e.String())
			shown++
			if shown >= 12 {
				fmt.Println("  ...")
				break
			}
		}
	}
}

func must(l *rsvp.LSP, err error) {
	if err != nil {
		panic(err)
	}
}
