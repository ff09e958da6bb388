package chaos

import (
	"strings"
	"testing"

	"mplsvpn/internal/core"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
)

// A periodic tick re-arms under the seq it was first posted with, so at an
// instant it shares with a registered action it keeps the order it had when
// every occurrence was posted at setup: after what was booked before the
// tick started, before what was booked after. Two chaos scripts land their
// operations on multiples of the 20 ms hello interval, one booked before
// the second switches survivability on. Each order shows in the journal as
// a session event one hello earlier or later: PE1's crash at 60 ms and
// restart at 300 ms run before that instant's scan (flap at 80 ms, restored
// at 300 ms), PE2's at 200 ms and 500 ms after it (flap at 240 ms, restored
// at 520 ms).
const tickOrderEnd = 800 * sim.Millisecond

// tickOrderJournal is the journal recorded when the scans were one event
// per occurrence, posted at setup.
const tickOrderJournal = `
#0000           0s  lsp_up           lsp:te-alpha  path PE1-P1-PE2
#0001           0s  lsp_up           lsp:te-beta  path PE1-P2-PE2
#0002         60ms  node_down        node:PE1  detect 10ms
#0003         60ms  chaos            chaos:crash  PE1
#0004         70ms  lsp_setup_failed lsp:te-alpha  rsvp: no route PE1 -> PE2
#0005         70ms  te_retry         lsp:te-alpha  attempt 2 in 104.802928ms
#0006         70ms  lsp_setup_failed lsp:te-beta  rsvp: no route PE1 -> PE2
#0007         70ms  te_retry         lsp:te-beta  attempt 2 in 104.388602ms
#0008         70ms  reconverged      te  kept 0 moved 0 resetup 0 failed 2; full sweep: rebuild
#0009         80ms  session_flap     session:bgp:PE1  protocol=bgp node=PE1 peer=PE2 stale_routes=0 withdrawn=2
#0010 174.388602ms  lsp_setup_failed lsp:te-beta  rsvp: no route PE1 -> PE2
#0011 174.388602ms  te_retry         lsp:te-beta  attempt 3 in 205.34847ms
#0012 174.802928ms  lsp_setup_failed lsp:te-alpha  rsvp: no route PE1 -> PE2
#0013 174.802928ms  te_retry         lsp:te-alpha  attempt 3 in 216.967963ms
#0014        200ms  node_down        node:PE2  detect 10ms
#0015        200ms  chaos            chaos:crash  PE2
#0016        210ms  lsp_setup_failed lsp:te-alpha  rsvp: no route PE1 -> PE2
#0017        210ms  te_degraded      lsp:te-alpha  bandwidth shrunk to 1500000 b/s (full 3000000)
#0018        210ms  lsp_setup_failed lsp:te-beta  rsvp: no route PE1 -> PE2
#0019        210ms  te_degraded      lsp:te-beta  bandwidth shrunk to 1500000 b/s (full 3000000)
#0020        210ms  reconverged      te  kept 0 moved 0 resetup 0 failed 2; full sweep: rebuild
#0021        240ms  session_flap     session:bgp:PE2  protocol=bgp node=PE2 stale_routes=0 withdrawn=0
#0022        300ms  node_up          node:PE1  detect 10ms
#0023        300ms  chaos            chaos:restart  PE1
#0024        300ms  session_restored session:bgp:PE1  protocol=bgp node=PE1 stale_refreshed=0 stale_swept=0
#0025        310ms  lsp_setup_failed lsp:te-alpha  rsvp: no route PE1 -> PE2
#0026        310ms  lsp_setup_failed lsp:te-beta  rsvp: no route PE1 -> PE2
#0027        310ms  reconverged      te  kept 0 moved 0 resetup 0 failed 2; full sweep: rebuild
#0028 379.737072ms  lsp_setup_failed lsp:te-beta  rsvp: no route PE1 -> PE2
#0029 379.737072ms  te_retry         lsp:te-beta  attempt 3 in 204.419525ms
#0030 391.770891ms  lsp_setup_failed lsp:te-alpha  rsvp: no route PE1 -> PE2
#0031 391.770891ms  te_retry         lsp:te-alpha  attempt 3 in 200.853858ms
#0032        500ms  node_up          node:PE2  detect 10ms
#0033        500ms  chaos            chaos:restart  PE2
#0034        510ms  lsp_up           lsp:te-alpha  path PE1-P1-PE2
#0035        510ms  lsp_up           lsp:te-beta  path PE1-P1-PE2
#0036        510ms  reconverged      te  kept 0 moved 0 resetup 2 failed 0; full sweep: rebuild
#0037        520ms  session_restored session:bgp:PE2  protocol=bgp node=PE2 stale_refreshed=0 stale_swept=0
#0038        750ms  lsp_up           lsp:te-alpha  path PE1-P1-PE2
#0039        750ms  te_restored      lsp:te-alpha  full reservation 3000000 b/s re-signalled
#0040        750ms  lsp_up           lsp:te-beta  path PE1-P2-PE2
#0041        750ms  te_restored      lsp:te-beta  full reservation 3000000 b/s re-signalled`

func buildTickOrder(t *testing.T) (*core.Backbone, *telemetry.Telemetry) {
	t.Helper()
	b, tel := chaosBackboneBare(31, tickOrderEnd)
	for _, src := range []string{`
crash PE1 at=60ms detect=10ms
restart PE1 at=300ms detect=10ms
`, `
survivability hello=20ms hold=2 restart=200ms gr=off
crash PE2 at=200ms detect=10ms
restart PE2 at=500ms detect=10ms
`} {
		sc, err := ParseScenario(strings.NewReader(src), "tick-order")
		if err != nil {
			t.Fatal(err)
		}
		New(b, sc).Schedule()
	}
	return b, tel
}

// TestTickKeepsSetupOrderThroughRestore runs the scripts uninterrupted and
// resumed from a cut before each shared instant; every run journals the
// recorded order.
func TestTickKeepsSetupOrderThroughRestore(t *testing.T) {
	const fp = "tick-order"
	want := strings.TrimSpace(tickOrderJournal)
	b, tel := buildTickOrder(t)
	b.Net.RunUntil(tickOrderEnd)
	if got := strings.TrimSpace(tel.Journal.Render()); got != want {
		t.Fatalf("uninterrupted run; first difference:\n%s", firstDiff(want, got))
	}
	for _, cut := range []sim.Time{50 * sim.Millisecond, 130 * sim.Millisecond, 290 * sim.Millisecond, 450 * sim.Millisecond} {
		b, _ := buildTickOrder(t)
		b.Net.RunUntil(cut)
		data, err := b.Snapshot(fp)
		if err != nil {
			t.Fatalf("cut %v: snapshot: %v", cut, err)
		}
		resumed, tel := buildTickOrder(t)
		if err := resumed.Restore(data, fp); err != nil {
			t.Fatalf("cut %v: restore: %v", cut, err)
		}
		resumed.Net.RunUntil(tickOrderEnd)
		if got := strings.TrimSpace(tel.Journal.Render()); got != want {
			t.Errorf("resumed from the cut at %v; first difference:\n%s", cut, firstDiff(want, got))
		}
	}
}
