package core

import (
	"strings"
	"testing"

	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
)

// TestRestoreProbeRacesNewDegradation drives the nastiest soft-state
// interleaving in the resilience plane: a restore probe fires on the very
// tick a new preemptor arrives. The probe tick is first posted at
// EnableResilience time, so on a shared tick the probe runs first — the
// victim is restored to full bandwidth and immediately preempted again,
// starting a second degradation cycle. The outcome must be deterministic
// and the intent must end fully restored once capacity returns for good.
func runRestoreRace(t *testing.T) (*Backbone, string, string) {
	t.Helper()
	b, tel := resilientSmall(41, ResilienceOptions{
		RetryBase: 10 * sim.Millisecond, RetryMax: 40 * sim.Millisecond,
		Policy: DegradeShrink, DegradeAfter: 2,
		RestoreProbe: 100 * sim.Millisecond, Horizon: 5 * sim.Second,
	})
	if _, err := b.SetupTELSPForVPN("victim", "PE1", "PE2", "acme", 8e6, -1,
		rsvp.SetupOptions{SetupPri: 6, HoldPri: 6}); err != nil {
		t.Fatal(err)
	}
	in, _ := b.G.NodeByName("PE1")
	eg, _ := b.G.NodeByName("PE2")

	var b1, b2 *rsvp.LSP
	b.At(100*sim.Millisecond, func() {
		l, err := b.RSVP.Setup("blocker1", in, eg, 7e6, rsvp.SetupOptions{SetupPri: 2, HoldPri: 2})
		if err != nil {
			t.Errorf("blocker1: %v", err)
			return
		}
		b1 = l
	})
	b.At(2*sim.Second, func() { b.RSVP.Teardown(b1.ID) })

	// 2100 ms is a restore-probe tick. The probe was scheduled at
	// EnableResilience time so it wins the tie: by the time blocker2's
	// setup runs the victim is back at its full 8 Mb/s — which blocker2
	// then preempts, forcing degradation cycle number two.
	var atTick TEIntentStatus
	b.At(2100*sim.Millisecond, func() {
		atTick = b.TEIntents()[0]
		l, err := b.RSVP.Setup("blocker2", in, eg, 7e6, rsvp.SetupOptions{SetupPri: 2, HoldPri: 2})
		if err != nil {
			t.Errorf("blocker2: %v", err)
			return
		}
		b2 = l
	})
	var afterPreempt TEIntentStatus
	b.At(2100*sim.Millisecond, func() { afterPreempt = b.TEIntents()[0] })
	b.At(3*sim.Second, func() { b.RSVP.Teardown(b2.ID) })
	b.Net.RunUntil(4 * sim.Second)

	if atTick.State != "up" || atTick.Bandwidth != 8e6 {
		t.Fatalf("at the shared tick the probe should have restored first: %+v", atTick)
	}
	if afterPreempt.State == "up" && afterPreempt.Bandwidth == 8e6 {
		t.Fatalf("blocker2 on the same tick did not preempt: %+v", afterPreempt)
	}
	return b, b.StateDigest(), tel.Journal.Render()
}

func TestRestoreProbeRacesNewDegradation(t *testing.T) {
	b, digest, journal := runRestoreRace(t)

	got := b.TEIntents()[0]
	if got.State != "up" || got.Bandwidth != 8e6 {
		t.Fatalf("final intent %+v, want fully restored 8 Mb/s", got)
	}
	if n := strings.Count(journal, "te_degraded"); n < 2 {
		t.Fatalf("te_degraded appears %d times, want >= 2 (one per cycle):\n%s", n, journal)
	}
	if n := strings.Count(journal, "te_restored"); n < 2 {
		t.Fatalf("te_restored appears %d times, want >= 2:\n%s", n, journal)
	}

	// The race must be deterministic: a second identical run replays the
	// same state, journal included, byte for byte.
	if _, digest2, _ := runRestoreRace(t); digest != digest2 {
		t.Fatalf("state digests diverged:\n%s\n---\n%s", digest, digest2)
	}
}
