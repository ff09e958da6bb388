package experiments

import (
	"strings"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/chaos"
	"mplsvpn/internal/core"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/stats"
	"mplsvpn/internal/trafgen"
)

// E14Result compares TE reservation continuity through a fault storm with
// the resilience plane off (baseline: a failed intent stays on the LDP
// fallback until the next reconvergence) and on (retry with backoff,
// graceful degradation, restore).
type E14Result struct {
	Table *stats.Table

	// NoReservation[config] counts 50 ms samples during which at least one
	// TE intent had no signalled LSP at all (traffic on the LDP fallback).
	NoReservation map[string]int
	// Degraded[config] counts samples with an intent up but degraded.
	Degraded map[string]int

	// Journal accounting for the resilient run.
	Retries, Degradations, Restores int
	// Invariant checker outcome (both runs).
	Violations int
}

// e14Scenario: a node crash squeezes both 3 Mb/s intents onto one 5 Mb/s
// path, then a flap train does the same on the other side.
const e14Scenario = `
crash P2 at=1s detect=50ms
restart P2 at=2500ms detect=50ms
flap PE1 P1 at=3s count=3 down=60ms up=90ms detect=10ms jitter=20ms
`

// E14FlapStorm measures what the chaos tentpole claims: with resilience
// on, a TE intent that cannot be re-signalled at full size comes back
// degraded within a few retry backoffs instead of silently riding LDP
// until the next topology event — and is restored to the full reservation
// when capacity returns.
func E14FlapStorm(dur sim.Time) *E14Result {
	if dur == 0 {
		dur = 4500 * sim.Millisecond
	}
	res := &E14Result{
		Table: stats.NewTable("E14 — TE reservation continuity through a fault storm (50ms samples)",
			"config", "no_reservation", "degraded", "fully_up"),
		NoReservation: map[string]int{},
		Degraded:      map[string]int{},
	}

	run := func(resilient bool) {
		name := "baseline"
		if resilient {
			name = "resilient"
		}
		b := core.NewBackbone(core.Config{Seed: 140, Scheduler: core.SchedHybrid})
		b.AddPE("PE1")
		b.AddP("P1")
		b.AddP("P2")
		b.AddPE("PE2")
		b.Link("PE1", "P1", 5e6, sim.Millisecond, 1)
		b.Link("P1", "PE2", 5e6, sim.Millisecond, 1)
		b.Link("PE1", "P2", 5e6, sim.Millisecond, 2)
		b.Link("P2", "PE2", 5e6, sim.Millisecond, 2)
		b.BuildProvider()
		b.DefineVPN("alpha")
		b.DefineVPN("beta")
		b.AddSite(core.SiteSpec{VPN: "alpha", Name: "a1", PE: "PE1",
			Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
		b.AddSite(core.SiteSpec{VPN: "alpha", Name: "a2", PE: "PE2",
			Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
		b.AddSite(core.SiteSpec{VPN: "beta", Name: "b1", PE: "PE1",
			Prefixes: []addr.Prefix{addr.MustParsePrefix("10.3.0.0/16")}})
		b.AddSite(core.SiteSpec{VPN: "beta", Name: "b2", PE: "PE2",
			Prefixes: []addr.Prefix{addr.MustParsePrefix("10.4.0.0/16")}})
		b.ConvergeVPNs()

		tel := b.EnableTelemetry(core.TelemetryOptions{Horizon: dur, JournalCap: 4096})
		if resilient {
			b.EnableResilience(core.ResilienceOptions{
				Policy:       core.DegradeShrink,
				RestoreProbe: 250 * sim.Millisecond,
				Horizon:      dur,
			})
		}
		if _, err := b.SetupTELSPForVPN("te-alpha", "PE1", "PE2", "alpha", 3e6, -1, rsvp.SetupOptions{}); err != nil {
			panic(err)
		}
		if _, err := b.SetupTELSPForVPN("te-beta", "PE1", "PE2", "beta", 3e6, -1, rsvp.SetupOptions{}); err != nil {
			panic(err)
		}
		fa, _ := b.FlowBetween("fa", "a1", "a2", 5060)
		fb, _ := b.FlowBetween("fb", "b1", "b2", 80)
		trafgen.CBR(b.Net, fa, 500, 10*sim.Millisecond, 0, dur)
		trafgen.CBR(b.Net, fb, 500, 10*sim.Millisecond, 0, dur)

		sc, err := chaos.ParseScenario(strings.NewReader(e14Scenario), "e14")
		if err != nil {
			panic(err)
		}
		inj := chaos.New(b, sc)
		inj.Schedule()

		// Sample reservation state every 50 ms of virtual time, as booked
		// events: the 1.05 s sample ties with the reconvergence the 1 s
		// crash posts, and runs first because it was booked first.
		fullyUp := 0
		for t := 50 * sim.Millisecond; t <= dur; t += 50 * sim.Millisecond {
			b.At(t, func() {
				down, degraded := false, false
				for _, st := range b.TEIntents() {
					switch st.State {
					case "down":
						down = true
					case "degraded":
						degraded = true
					}
				}
				switch {
				case down:
					res.NoReservation[name]++
				case degraded:
					res.Degraded[name]++
				default:
					fullyUp++
				}
			})
		}
		b.Net.RunUntil(dur + sim.Second)

		res.Violations += len(inj.Checker.Violations)
		if resilient {
			for _, e := range tel.Journal.Events() {
				switch e.Kind.String() {
				case "te_retry":
					res.Retries++
				case "te_degraded":
					res.Degradations++
				case "te_restored":
					res.Restores++
				}
			}
		}
		res.Table.AddRow(name, res.NoReservation[name], res.Degraded[name], fullyUp)
	}

	run(false)
	run(true)
	return res
}
