package chaos

import (
	"fmt"
	"strings"
	"testing"

	"mplsvpn/internal/core"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/trafgen"
)

// grScenario exercises the full survivability surface under the
// equivalence harness: graceful-restart sessions, route-flap damping, a
// lossy control plane, an in-window PE crash/restart, and a flap train
// noisy enough to cross the damping suppress threshold.
const grScenario = `
survivability hello=20ms hold=3 restart=900ms gr=on
damping penalty=1000 suppress=1800 reuse=800 halflife=1500ms
ctrlloss 0.25 extra=150ms
crash PE1 at=1s detect=20ms
restart PE1 at=1500ms detect=20ms
flap P1 PE2 at=2s count=4 down=70ms up=100ms detect=10ms jitter=25ms
crash P2 at=4s detect=50ms
restart P2 at=4400ms detect=50ms
fail PE1 P1 at=5200ms detect=20ms
restore PE1 P1 at=5600ms detect=20ms
`

// runGREquiv drives the survivability scenario on the serial engine
// (shards == 0) or the sharded backend and renders everything observable,
// including the session counters the new plane maintains.
func runGREquiv(t *testing.T, shards, workers int) string {
	t.Helper()
	const horizon = 7 * sim.Second
	sc, err := ParseScenario(strings.NewReader(grScenario), "gr")
	if err != nil {
		t.Fatal(err)
	}
	b, tel := chaosBackboneBare(23, horizon)
	// Enable the sessions from the scenario's own directives, before
	// sharding so the serial and parallel runs book identical hello scans.
	b.EnableSurvivability(SurvivabilityOptions(sc, horizon))
	if shards > 0 {
		if _, err := b.EnableSharding(core.ShardingOptions{Shards: shards, Workers: workers}); err != nil {
			t.Fatalf("EnableSharding(%d): %v", shards, err)
		}
	}

	fa, err := b.FlowBetween("fa", "a1", "a2", 5060)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.FlowBetween("fb", "b1", "b2", 80)
	if err != nil {
		t.Fatal(err)
	}
	trafgen.CBR(b.Net, fa, 500, 5*sim.Millisecond, 29*sim.Microsecond, horizon)
	trafgen.CBR(b.Net, fb, 1000, 5*sim.Millisecond, 137*sim.Microsecond, horizon)

	inj := New(b, sc)
	inj.Schedule()
	b.Net.RunUntil(horizon + sim.Second)

	if err := b.Net.CheckConservation(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	if len(inj.Checker.Violations) != 0 {
		t.Fatalf("shards=%d invariant violations: %v", shards, inj.Checker.Violations)
	}

	var sb strings.Builder
	sb.WriteString(b.StateDigest())
	st := b.SessionStats()
	fmt.Fprintf(&sb, "sessions: flaps=%d restores=%d swept=%d withdrawn=%d damped=%d reused=%d\n",
		st.Flaps, st.Restores, st.StaleSwept, st.Withdrawn, st.Damped, st.Reused)
	fmt.Fprintf(&sb, "bgp: stale_retained=%d stale_swept=%d withdrawals=%d\n",
		b.BGP.StaleRetained, b.BGP.StaleSwept, b.BGP.WithdrawalsSent)
	fmt.Fprintf(&sb, "ops: applied=%d rejected=%d checks=%d\n",
		inj.Applied, inj.Rejected, inj.Checker.Checks)
	fmt.Fprintf(&sb, "net: injected=%d delivered=%d dropped=%d isolation=%d\n",
		b.Net.Injected, b.Net.Delivered, b.Net.Dropped, b.IsolationViolations)
	sb.WriteString(fa.Stats.Summary())
	sb.WriteByte('\n')
	sb.WriteString(fb.Stats.Summary())
	sb.WriteByte('\n')
	sb.WriteString(tel.Journal.Render())
	return sb.String()
}

// TestSurvivabilitySerialParallelEquivalence: the graceful-restart and
// damping machinery — hello scans, stale retention, sweeps, penalty decay
// — must be byte-identical between the serial engine and the parallel
// backend at 1, 2, and 8 shards.
func TestSurvivabilitySerialParallelEquivalence(t *testing.T) {
	want := runGREquiv(t, 0, 0)
	for _, probe := range []string{"session_flap", "session_restored"} {
		if !strings.Contains(want, probe) {
			t.Fatalf("serial run did not exercise %q:\n%s", probe, want)
		}
	}
	if !strings.Contains(want, "restores=") || strings.Contains(want, "restores=0 ") {
		t.Fatalf("no session restores in serial run:\n%s", want)
	}
	for _, shards := range []int{1, 2, 8} {
		got := runGREquiv(t, shards, 4)
		if got != want {
			t.Errorf("shards=%d diverged from serial; first difference:\n%s",
				shards, firstDiff(want, got))
		}
	}
}

// FuzzSurvivability feeds the parser arbitrary survivability and damping
// directives: it must either reject them or produce a scenario whose
// derived options are well-formed, never panic.
func FuzzSurvivability(f *testing.F) {
	seeds := []string{
		"survivability hello=25ms hold=3 restart=800ms gr=on\n",
		"survivability hello=1ms hold=1 restart=1ms gr=off\n",
		"damping penalty=1000 suppress=2000 halflife=15s\n",
		"damping penalty=1 suppress=1 reuse=1 halflife=1ms max=5\n",
		"survivability hello=20ms hold=3 restart=900ms gr=on\ndamping penalty=1000 suppress=1800 reuse=800 halflife=1500ms\ncrash PE1 at=1s\nrestart PE1 at=1500ms\n",
		"survivability hello=0s hold=3 restart=1s gr=on\n",
		"survivability hello=25ms hold=101 restart=1s gr=maybe\n",
		"damping penalty=-1 suppress=2 halflife=1s\n",
		"damping penalty=1e12 suppress=2 halflife=1s\n",
		"survivability\nsurvivability hello=1ms hold=1 restart=1ms gr=on\n",
		"damping penalty=NaN suppress=2000 halflife=15s\n",
		"ctrlloss NaN\nsurvivability hello=25ms hold=3 restart=800ms gr=on\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script string) {
		sc, err := ParseScenario(strings.NewReader(script), "fuzz")
		if err != nil {
			checkParseError(t, script, err)
			return
		}
		_ = sc.EventCount()
		_ = sc.Duration()
		opt := SurvivabilityOptions(sc, sc.Duration()+2*sim.Second)
		if sc.Surv != nil {
			if opt.Hello < 0 || opt.RestartTime < 0 || opt.HoldMisses < 0 {
				t.Fatalf("accepted survivability produced negative timers: %+v", opt)
			}
		}
		if sc.Damping != nil && opt.Damping.Enabled() {
			if opt.Damping.Reuse <= 0 || opt.Damping.Suppress < opt.Damping.Reuse {
				t.Fatalf("accepted damping has unusable thresholds: %+v", opt.Damping)
			}
		}
	})
}
