package chaos

import (
	"errors"
	"strings"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/core"
	"mplsvpn/internal/dsl"
	"mplsvpn/internal/mpls"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
	"mplsvpn/internal/trafgen"
)

func TestParseScenario(t *testing.T) {
	const script = `
# flap storm with a crash in the middle
ctrlloss 0.25 extra=150ms
flap PE1 P1 at=500ms count=5 down=80ms up=120ms detect=10ms jitter=30ms
crash P2 at=2200ms detect=50ms
restart P2 at=2700ms detect=50ms
cut a2 at=3s
uncut a2 at=3400ms
fail PE1 P1 at=5s detect=20ms
restore PE1 P1 at=5300ms
`
	sc, err := ParseScenario(strings.NewReader(script), "test")
	if err != nil {
		t.Fatal(err)
	}
	if sc.CtrlLoss != 0.25 || sc.CtrlExtra != 150*sim.Millisecond {
		t.Fatalf("ctrlloss = %v extra %v", sc.CtrlLoss, sc.CtrlExtra)
	}
	if len(sc.Events) != 7 {
		t.Fatalf("events = %d, want 7", len(sc.Events))
	}
	if got := sc.EventCount(); got != 16 { // 10 flap transitions + 6 singles
		t.Fatalf("EventCount = %d, want 16", got)
	}
	if sc.Events[0].Op != OpFlap || sc.Events[0].Count != 5 || sc.Events[0].Jitter != 30*sim.Millisecond {
		t.Fatalf("flap event = %+v", sc.Events[0])
	}
	// restore without detect= gets the default.
	if sc.Events[6].Detect != DefaultDetect {
		t.Fatalf("default detect = %v", sc.Events[6].Detect)
	}
	if sc.Duration() < 5300*sim.Millisecond {
		t.Fatalf("Duration = %v", sc.Duration())
	}
}

func TestParseScenarioErrors(t *testing.T) {
	bad := []string{
		"explode P1 P2 at=1s",              // unknown directive
		"fail P1 P2",                       // missing at=
		"fail P1 P2 detect=1s",             // still missing at=
		"fail P1 P2 at=notaduration",       // bad duration
		"flap P1 P2 at=1s down=1ms up=1ms", // missing count
		"flap P1 P2 at=1s count=0 down=1ms up=1ms",
		"flap P1 P2 at=1s count=2 down=0s up=1ms",
		"ctrlloss 1.5",
		"crash P1 at=1s bogus=2s",
		"fail P1 P2 at=-5s",
	}
	for _, script := range bad {
		if _, err := ParseScenario(strings.NewReader(script), "bad"); err == nil {
			t.Errorf("no error for %q", script)
		}
	}
}

// chaosBackbone builds the scripted-scenario testbed: two disjoint
// PE1->PE2 paths of 5 Mb/s each, two VPNs with sites on both PEs, and two
// 3 Mb/s TE intents — together they overflow a single surviving path, so
// losing one path forces the degradation machinery to act.
func chaosBackbone(seed uint64, horizon sim.Time) (*core.Backbone, *telemetry.Telemetry) {
	b, tel := chaosBackboneBare(seed, horizon)
	// Sessionized control plane, graceful restart off: crashes keep their
	// hard semantics while every run still exercises the hello state
	// machine (and its serial-vs-parallel equivalence).
	b.EnableSurvivability(core.SurvivabilityOptions{HelloOptions: core.HelloOptions{Horizon: horizon}})
	return b, tel
}

// chaosBackboneBare is chaosBackbone without the survivability layer, for
// tests that enable it themselves from a scenario's directives.
func chaosBackboneBare(seed uint64, horizon sim.Time) (*core.Backbone, *telemetry.Telemetry) {
	b := core.NewBackbone(core.Config{Seed: seed, Scheduler: core.SchedHybrid})
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

	tel := b.EnableTelemetry(core.TelemetryOptions{Horizon: horizon, JournalCap: 4096})
	b.EnableResilience(core.ResilienceOptions{
		Policy:       core.DegradeShrink,
		RestoreProbe: 250 * sim.Millisecond,
		Horizon:      horizon,
	})
	if _, err := b.SetupTELSPForVPN("te-alpha", "PE1", "PE2", "alpha", 3e6, -1, rsvp.SetupOptions{}); err != nil {
		panic(err)
	}
	if _, err := b.SetupTELSPForVPN("te-beta", "PE1", "PE2", "beta", 3e6, -1, rsvp.SetupOptions{}); err != nil {
		panic(err)
	}
	return b, tel
}

// TestCheckerFlagsLabelLoop wires the smallest forwarding loop there is —
// the ingress PE and its next hop swapping one label back and forth — and
// expects the loop-freedom pass to report it from Trace.Loop.
func TestCheckerFlagsLabelLoop(t *testing.T) {
	b, _ := chaosBackbone(3, sim.Second)
	c := NewChecker(b)
	if c.Check(); len(c.Violations) != 0 {
		t.Fatalf("violations before the loop: %v", c.Violations)
	}
	dst, _ := b.SiteAddr("a2")
	tr := b.TraceRoute("a1", dst, 0)
	if !tr.Delivered || tr.Loop || len(tr.Hops) < 3 || tr.Hops[1].Stack.Depth() == 0 {
		t.Fatalf("a1 -> a2 is not a labelled path:\n%s", tr)
	}
	pe, next := tr.Hops[1], tr.Hops[2]
	out := pe.Stack.Top().Label // what the PE sends its next hop
	const back = packet.MaxLabel
	fwd, _ := b.G.FindLink(pe.Node, next.Node)
	rev, _ := b.G.FindLink(next.Node, pe.Node)
	b.Router(next.Name).LFIB.BindILM(out, mpls.NHLFE{Op: mpls.OpSwap, OutLabel: back, OutLink: rev.ID})
	b.Router(pe.Name).LFIB.BindILM(back, mpls.NHLFE{Op: mpls.OpSwap, OutLabel: out, OutLink: fwd.ID})

	if tr = b.TraceRoute("a1", dst, 0); !tr.Loop || tr.Delivered {
		t.Fatalf("trace through the loop: Loop=%v Delivered=%v\n%s", tr.Loop, tr.Delivered, tr)
	}
	c.Check()
	loops := 0
	for _, v := range c.Violations {
		if v.Kind == "loop" {
			loops++
		}
	}
	if loops == 0 {
		t.Fatalf("checker missed the loop: %v", c.Violations)
	}
}

// scriptedScenario is the acceptance scenario: >= 20 operations mixing
// flap trains, a node crash/restart, an attachment cut, plain
// fail/restore, and control-plane loss.
const scriptedScenario = `
ctrlloss 0.25 extra=150ms
flap PE1 P1 at=500ms count=5 down=80ms up=120ms detect=10ms jitter=30ms
crash P2 at=2200ms detect=50ms
restart P2 at=2700ms detect=50ms
cut a2 at=3s
uncut a2 at=3400ms
flap P1 PE2 at=3800ms count=3 down=60ms up=90ms detect=5ms jitter=20ms
fail PE1 P1 at=5s detect=20ms
restore PE1 P1 at=5300ms detect=20ms
fail PE1 P1 at=5500ms detect=20ms
restore PE1 P1 at=5800ms detect=20ms
`

// runScripted drives the acceptance scenario once.
func runScripted(t *testing.T, seed uint64) (*core.Backbone, *telemetry.Telemetry, *Injector) {
	t.Helper()
	const horizon = 7 * sim.Second
	sc, err := ParseScenario(strings.NewReader(scriptedScenario), "scripted")
	if err != nil {
		t.Fatal(err)
	}
	if n := sc.EventCount(); n < 20 {
		t.Fatalf("scenario has %d events, acceptance needs >= 20", n)
	}
	b, tel := chaosBackbone(seed, horizon)

	fa, err := b.FlowBetween("fa", "a1", "a2", 5060)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.FlowBetween("fb", "b1", "b2", 80)
	if err != nil {
		t.Fatal(err)
	}
	trafgen.CBR(b.Net, fa, 500, 5*sim.Millisecond, 0, horizon)
	trafgen.CBR(b.Net, fb, 1000, 5*sim.Millisecond, 0, horizon)

	inj := New(b, sc)
	inj.Schedule()
	b.Net.RunUntil(horizon + sim.Second)
	return b, tel, inj
}

// The tentpole acceptance test: same seed + same script => byte-identical
// journal and final control-plane state; zero isolation/loop/conservation
// violations; and every TE intent ends re-signalled or explicitly
// degraded — never silently stuck on the LDP fallback.
func TestScriptedChaosDeterminism(t *testing.T) {
	b1, tel1, inj1 := runScripted(t, 11)
	b2, tel2, inj2 := runScripted(t, 11)

	j1, j2 := tel1.Journal.Render(), tel2.Journal.Render()
	if j1 != j2 {
		t.Fatalf("journals differ between same-seed runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", j1, j2)
	}
	d1, d2 := b1.StateDigest(), b2.StateDigest()
	if d1 != d2 {
		t.Fatalf("state digests differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", d1, d2)
	}

	if len(inj1.Checker.Violations) != 0 {
		for _, v := range inj1.Checker.Violations {
			t.Errorf("invariant violation: %s", v)
		}
		t.Fatal("invariant checker found violations")
	}
	if inj1.Checker.Checks != inj1.Applied+inj1.Rejected {
		t.Fatalf("checks = %d, ops = %d", inj1.Checker.Checks, inj1.Applied+inj1.Rejected)
	}
	if inj1.Applied+inj1.Rejected < 20 {
		t.Fatalf("only %d operations fired", inj1.Applied+inj1.Rejected)
	}
	if inj1.Applied != inj2.Applied || inj1.Rejected != inj2.Rejected {
		t.Fatalf("op outcomes differ across runs: %d/%d vs %d/%d",
			inj1.Applied, inj1.Rejected, inj2.Applied, inj2.Rejected)
	}
	if b1.IsolationViolations != 0 {
		t.Fatalf("isolation violations = %d", b1.IsolationViolations)
	}

	// No intent may end on silent LDP fallback: up, or degraded with the
	// degradation journaled.
	for _, st := range b1.TEIntents() {
		switch st.State {
		case "up":
		case "degraded":
			if !strings.Contains(j1, "te_degraded") {
				t.Fatalf("intent %s degraded but no te_degraded journal entry", st.Name)
			}
		default:
			t.Fatalf("intent %s ended %q (bandwidth %.0f/%.0f, %d attempts):\n%s",
				st.Name, st.State, st.Bandwidth, st.FullBandwidth, st.Attempts, j1)
		}
	}

	// The squeeze (two 3 Mb/s intents through one 5 Mb/s path) must have
	// exercised the retry/backoff machinery at least once.
	for _, want := range []string{"node_down", "node_up", "te_retry", "chaos"} {
		if !strings.Contains(j1, want) {
			t.Fatalf("journal missing %q:\n%s", want, j1)
		}
	}
}

// Rejected operations (double-fail, restore of a healthy link, unknown
// names) must be journaled and counted, not panic.
func TestInjectorRejectsBadOps(t *testing.T) {
	const script = `
fail PE1 P1 at=100ms
fail PE1 P1 at=200ms            # already failed
restore PE1 P2 at=300ms          # no such link... actually exists; use unknown node
fail PE1 NOPE at=400ms           # unknown node
restore PE1 P1 at=500ms
restore PE1 P1 at=600ms          # not failed any more
`
	sc, err := ParseScenario(strings.NewReader(script), "bad-ops")
	if err != nil {
		t.Fatal(err)
	}
	b, tel := chaosBackbone(5, sim.Second)
	inj := New(b, sc)
	inj.Schedule()
	b.Net.RunUntil(2 * sim.Second)

	if inj.Applied != 2 {
		t.Fatalf("applied = %d, want 2 (fail + restore)", inj.Applied)
	}
	if inj.Rejected != 4 {
		t.Fatalf("rejected = %d, want 4", inj.Rejected)
	}
	j := tel.Journal.Render()
	if !strings.Contains(j, "op_rejected") {
		t.Fatalf("rejections not journaled:\n%s", j)
	}
	if len(inj.Checker.Violations) != 0 {
		t.Fatalf("violations: %v", inj.Checker.Violations)
	}
}

// A crash wipes the node's forwarding state and the invariants hold
// through the rebuild; after restart the TE intents recover.
func TestCrashRestartRecovers(t *testing.T) {
	const script = `
crash P1 at=500ms detect=20ms
restart P1 at=1500ms detect=20ms
`
	sc, err := ParseScenario(strings.NewReader(script), "crash")
	if err != nil {
		t.Fatal(err)
	}
	b, tel := chaosBackbone(3, 4*sim.Second)
	inj := New(b, sc)
	inj.Schedule()
	b.Net.RunUntil(5 * sim.Second)

	if inj.Applied != 2 || len(inj.Checker.Violations) != 0 {
		t.Fatalf("applied=%d violations=%v", inj.Applied, inj.Checker.Violations)
	}
	j := tel.Journal.Render()
	for _, want := range []string{"node_down", "node_up"} {
		if !strings.Contains(j, want) {
			t.Fatalf("journal missing %q:\n%s", want, j)
		}
	}
	for _, st := range b.TEIntents() {
		if st.State == "down" {
			t.Fatalf("intent %s still down after restart:\n%s", st.Name, j)
		}
	}
}

func FuzzScenario(f *testing.F) {
	f.Add("fail PE1 P1 at=1s detect=10ms\nrestore PE1 P1 at=2s\n")
	f.Add("flap A B at=1s count=3 down=10ms up=10ms jitter=5ms\n")
	f.Add("ctrlloss 0.5 extra=1s\ncrash X at=1ms\ncut s at=2ms\n")
	f.Add("# comment only\n\n")
	f.Add("flap A B at=1s count=9999 down=1ns up=1ns\n")
	f.Add("asfail beta at=2s\nasrestore beta at=5s detect=100ms\n")
	f.Add("asfail at=1s\nasrestore gamma\n")
	f.Add("survivability hello=25ms hold=3 gr=on\nasfail alpha at=3s\n")
	f.Add("ctrlloss NaN\n")
	f.Add("damping penalty=NaN suppress=2000 halflife=15s\n")
	f.Fuzz(func(t *testing.T, input string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ParseScenario panicked on %q: %v", input, r)
			}
		}()
		sc, err := ParseScenario(strings.NewReader(input), "fuzz")
		if err != nil {
			checkParseError(t, input, err)
			return
		}
		// Derived quantities must not panic either.
		_ = sc.EventCount()
		_ = sc.Duration()
	})
}

// checkParseError fails unless err is a *dsl.Error placed within input's
// lines or just past them.
func checkParseError(t *testing.T, input string, err error) {
	t.Helper()
	var de *dsl.Error
	if lines := strings.Count(input, "\n") + 1; !errors.As(err, &de) || de.Line < 1 || de.Line > lines+1 {
		t.Fatalf("error %#v is not a *dsl.Error within the input's %d lines", err, lines)
	}
}
