package chaos

import (
	"fmt"
	"strings"
	"testing"

	"mplsvpn/internal/core"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/trafgen"
)

// runScriptedEquiv drives the full acceptance scenario — flap trains,
// crash/restart, attachment cut, fail/restore, control-plane loss — on
// either the serial engine (shards == 0) or the sharded backend, and
// renders everything observable: final control-plane digest, the event
// journal, injector op outcomes, packet counters, and per-flow stats.
//
// Every chaos operation lands on the engine's global band (the injector
// books ops via b.E.Schedule), so under sharding each op executes at a
// barrier with all shard clocks caught up — the scripted fault sequence
// is a pure control-plane workload and must be byte-identical to serial.
func runScriptedEquiv(t *testing.T, shards, workers int) string {
	t.Helper()
	const horizon = 7 * sim.Second
	sc, err := ParseScenario(strings.NewReader(scriptedScenario), "scripted")
	if err != nil {
		t.Fatal(err)
	}
	b, tel := chaosBackbone(11, horizon)
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
	// Distinct phase offsets keep cross-shard arrivals from landing on the
	// same nanosecond, where serial tie-breaks by global sequence number
	// and parallel by (source shard, sequence).
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
	// A clamp is an instant the serial engine would not have used.
	if n := b.E.Clamped(); n != 0 {
		t.Errorf("shards=%d: %d past timestamps clamped", shards, n)
	}

	var sb strings.Builder
	sb.WriteString(b.StateDigest())
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

// TestChaosScriptSerialParallelEquivalence is the chaos leg of the
// equivalence harness: the scripted fault scenario must produce a
// byte-identical journal, state digest, op ledger, and flow stats on the
// parallel backend at 1, 2, and 8 shards.
func TestChaosScriptSerialParallelEquivalence(t *testing.T) {
	want := runScriptedEquiv(t, 0, 0)
	if !strings.Contains(want, "node_down") || !strings.Contains(want, "chaos") {
		t.Fatalf("serial run did not exercise the chaos machinery:\n%s", want)
	}
	for _, shards := range []int{1, 2, 8} {
		got := runScriptedEquiv(t, shards, 4)
		if got != want {
			t.Errorf("shards=%d diverged from serial; first difference:\n%s",
				shards, firstDiff(want, got))
		}
	}
}

// TestChaosScriptWorkerInvariance re-runs the sharded scenario at several
// worker-pool sizes: the thread count may never leak into results.
func TestChaosScriptWorkerInvariance(t *testing.T) {
	want := runScriptedEquiv(t, 4, 1)
	for _, workers := range []int{2, 3, 8} {
		got := runScriptedEquiv(t, 4, workers)
		if got != want {
			t.Errorf("workers=%d diverged from workers=1; first difference:\n%s",
				workers, firstDiff(want, got))
		}
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  serial:   %q\n  parallel: %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length: %d vs %d lines", len(al), len(bl))
}
