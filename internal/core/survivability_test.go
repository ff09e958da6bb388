package core

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

// survSmall is resilientSmall plus the survivability plane with fast
// timers, graceful restart on.
func survSmall(seed uint64, opts SurvivabilityOptions) (*Backbone, *telemetry.Telemetry) {
	b := buildSmall(Config{Seed: seed, Scheduler: SchedHybrid})
	twoSites(b)
	horizon := opts.Horizon
	tel := b.EnableTelemetry(TelemetryOptions{Horizon: horizon, JournalCap: 4096})
	b.EnableResilience(ResilienceOptions{Horizon: horizon})
	b.EnableSurvivability(opts)
	return b, tel
}

// A PE whose control plane dies and never comes back: the restart timer
// expires, the stale routes are swept with withdrawals, and the node is
// hardened into a full crash.
func TestGRTimerExpirySweepsStale(t *testing.T) {
	b, tel := survSmall(41, SurvivabilityOptions{
		Hello: 10 * sim.Millisecond, HoldMisses: 2,
		GracefulRestart: true, RestartTime: 200 * sim.Millisecond,
		Horizon: 2 * sim.Second,
	})
	b.At(100*sim.Millisecond, func() { b.CrashNode("PE1", 0) })
	b.Net.RunUntil(2 * sim.Second)

	st := b.SessionStats()
	if st.Flaps == 0 {
		t.Fatal("session loss never detected")
	}
	if st.Restores != 0 {
		t.Fatalf("restores = %d for a node that never returned", st.Restores)
	}
	if b.BGP.StaleRetained == 0 {
		t.Fatal("graceful restart retained nothing")
	}
	if b.BGP.StaleSwept == 0 || b.BGP.WithdrawalsSent == 0 {
		t.Fatalf("expiry did not sweep: swept=%d withdrawals=%d",
			b.BGP.StaleSwept, b.BGP.WithdrawalsSent)
	}
	j := tel.Journal.Render()
	for _, want := range []string{
		"session_flap", "stale_swept", "restart timer expired",
		"forwarding state withdrawn",
	} {
		if !strings.Contains(j, want) {
			t.Fatalf("journal missing %q:\n%s", want, j)
		}
	}
	// Hardened crash: the node is now fully down, so a second crash is a
	// precondition error and a restart succeeds.
	if err := b.CrashNode("PE1", 0); err == nil {
		t.Fatal("crash accepted on an already-hardened node")
	}
	if err := b.RestartNode("PE1", 0); err != nil {
		t.Fatalf("restart after hardening: %v", err)
	}
}

// Two crash/restart cycles, each inside the restart window: graceful
// restart must carry both without a single withdrawal, and the sessions
// must come back clean.
func TestDoubleRestartWithinWindow(t *testing.T) {
	b, tel := survSmall(42, SurvivabilityOptions{
		Hello: 10 * sim.Millisecond, HoldMisses: 2,
		GracefulRestart: true, RestartTime: 800 * sim.Millisecond,
		Horizon: 3 * sim.Second,
	})
	f, err := b.FlowBetween("f", "branch", "hq", 5060)
	if err != nil {
		t.Fatal(err)
	}
	trafgen.CBR(b.Net, f, 200, 10*sim.Millisecond, 0, 2*sim.Second)
	b.At(200*sim.Millisecond, func() { b.CrashNode("PE1", 0) })
	b.At(500*sim.Millisecond, func() { b.RestartNode("PE1", 0) })
	b.At(900*sim.Millisecond, func() { b.CrashNode("PE1", 0) })
	b.At(1200*sim.Millisecond, func() { b.RestartNode("PE1", 0) })
	b.Net.RunUntil(3 * sim.Second)

	if b.BGP.WithdrawalsSent != 0 {
		t.Fatalf("withdrawals = %d across two in-window restarts, want 0:\n%s",
			b.BGP.WithdrawalsSent, tel.Journal.Render())
	}
	st := b.SessionStats()
	if st.Flaps != 2 || st.Restores != 2 {
		t.Fatalf("flaps=%d restores=%d, want 2/2", st.Flaps, st.Restores)
	}
	// Forwarding-state preservation: the flow into the crashed PE rode the
	// stale routes through both outages.
	if f.Stats.Sent == 0 || f.Stats.LossRate() != 0 {
		t.Fatalf("loss across GR outages: sent=%d delivered=%d",
			f.Stats.Sent, f.Stats.Delivered)
	}
	j := tel.Journal.Render()
	for _, want := range []string{"session_flap", "session_restored"} {
		if !strings.Contains(j, want) {
			t.Fatalf("journal missing %q:\n%s", want, j)
		}
	}
}

// Without graceful restart the same storm withdraws routes immediately.
func TestSessionLossWithoutGRWithdraws(t *testing.T) {
	b, tel := survSmall(43, SurvivabilityOptions{
		Hello: 10 * sim.Millisecond, HoldMisses: 2,
		GracefulRestart: false,
		Horizon:         sim.Second,
	})
	b.At(100*sim.Millisecond, func() { b.CrashNode("PE1", 0) })
	b.Net.RunUntil(sim.Second)
	if b.BGP.WithdrawalsSent == 0 {
		t.Fatalf("no withdrawals without GR:\n%s", tel.Journal.Render())
	}
	if b.BGP.StaleRetained != 0 {
		t.Fatalf("stale retained without GR: %d", b.BGP.StaleRetained)
	}
}

// Make-before-break under live traffic: reoptimizing a TE LSP onto a new
// path must not drop a single byte of the flow riding it — the old path's
// labels drain before they are unbound.
func TestMBBReoptimizeConservesBytes(t *testing.T) {
	b := NewBackbone(Config{Seed: 44, Scheduler: SchedHybrid})
	b.AddPE("PE1")
	b.AddP("P1")
	b.AddP("P2")
	b.AddPE("PE2")
	b.Link("PE1", "P1", 10e6, sim.Millisecond, 1)
	b.Link("P1", "PE2", 10e6, sim.Millisecond, 1)
	b.Link("PE1", "P2", 10e6, sim.Millisecond, 2)
	b.Link("P2", "PE2", 10e6, sim.Millisecond, 2)
	b.BuildProvider()
	b.DefineVPN("acme")
	b.AddSite(SiteSpec{VPN: "acme", Name: "hq", PE: "PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.AddSite(SiteSpec{VPN: "acme", Name: "branch", PE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	b.ConvergeVPNs()
	tel := b.EnableTelemetry(TelemetryOptions{Horizon: 2 * sim.Second, JournalCap: 4096})

	if _, err := b.SetupTELSPForVPN("te1", "PE1", "PE2", "acme", 2e6, -1,
		rsvp.SetupOptions{SetupPri: 4, HoldPri: 4}); err != nil {
		t.Fatal(err)
	}
	before := b.TEIntents()[0].Path
	if !strings.Contains(before, "P1") {
		t.Fatalf("LSP should start on the short path: %s", before)
	}

	f, err := b.FlowBetween("f", "hq", "branch", 5060)
	if err != nil {
		t.Fatal(err)
	}
	trafgen.CBR(b.Net, f, 500, 2*sim.Millisecond, 0, 2*sim.Second)

	// Mid-run, steer the LSP off the P1 leg while packets are in flight.
	b.At(sim.Second, func() {
		p1, _ := b.G.NodeByName("P1")
		pe2, _ := b.G.NodeByName("PE2")
		lk, ok := b.G.FindLink(p1, pe2)
		if !ok {
			t.Error("no P1->PE2 link")
			return
		}
		if err := b.ReoptimizeTE("te1", map[topo.LinkID]bool{lk.ID: true}); err != nil {
			t.Errorf("reoptimize: %v", err)
		}
	})
	b.Net.RunUntil(2*sim.Second + sim.Second)

	after := b.TEIntents()[0].Path
	if !strings.Contains(after, "P2") {
		t.Fatalf("LSP did not move: %s -> %s", before, after)
	}
	if f.Stats.Sent == 0 || f.Stats.LossRate() != 0 {
		t.Fatalf("make-before-break dropped traffic: sent=%d delivered=%d\n%s",
			f.Stats.Sent, f.Stats.Delivered, tel.Journal.Render())
	}
	if err := b.Net.CheckConservation(); err != nil {
		t.Fatalf("byte conservation: %v", err)
	}
	if !strings.Contains(tel.Journal.Render(), "reoptimized") {
		t.Fatal("reoptimization not journaled")
	}
}

// Control-plane message loss must compound with the retry backoff: with
// every trigger lost (loss=1.0), each journaled retry delay is the
// exponential backoff plus the retransmission extra.
func TestCtrlLossCompoundsRetryBackoff(t *testing.T) {
	const extra = 123 * sim.Millisecond
	base := 10 * sim.Millisecond
	b, tel := resilientSmall(45, ResilienceOptions{
		RetryBase: base, RetryMax: 80 * sim.Millisecond,
		Policy: DegradeNone, Horizon: 5 * sim.Second,
	})
	b.SetControlPlaneLoss(1.0, extra)
	if _, err := b.SetupTELSPForVPN("victim", "PE1", "PE2", "acme", 8e6, -1,
		rsvp.SetupOptions{SetupPri: 6, HoldPri: 6}); err != nil {
		t.Fatal(err)
	}
	in, _ := b.G.NodeByName("PE1")
	eg, _ := b.G.NodeByName("PE2")
	b.At(100*sim.Millisecond, func() {
		if _, err := b.RSVP.Setup("blocker", in, eg, 8e6,
			rsvp.SetupOptions{SetupPri: 2, HoldPri: 2}); err != nil {
			t.Errorf("blocker setup: %v", err)
		}
	})
	b.Net.RunUntil(2 * sim.Second)

	lost, retries := 0, 0
	for _, e := range tel.Journal.Events() {
		switch e.Kind {
		case telemetry.EventCtrlLoss:
			if strings.Contains(e.Detail, "retransmit adds") {
				lost++
			}
		case telemetry.EventTERetry:
			var attempt int
			var durStr string
			if n, _ := fmtSscanf(e.Detail, &attempt, &durStr); n != 2 {
				continue
			}
			d, err := time.ParseDuration(durStr)
			if err != nil {
				t.Fatalf("unparseable retry delay %q", e.Detail)
			}
			delay := sim.Time(d)
			shift := attempt - 1
			if shift > 3 {
				shift = 3 // RetryMax = 80ms = base << 3
			}
			backoff := base << uint(shift)
			lo := backoff + extra
			hi := backoff + sim.Time(float64(backoff)*0.1) + extra
			if delay < lo || delay > hi {
				t.Fatalf("retry delay %v outside [%v, %v] for %q", delay, lo, hi, e.Detail)
			}
			retries++
		}
	}
	if retries == 0 || lost == 0 {
		t.Fatalf("retries=%d lost=%d — scenario never exercised the compound path", retries, lost)
	}
	if lost < retries {
		t.Fatalf("only %d of %d retries compounded at loss=1.0", lost, retries)
	}
}

// fmtSscanf parses a te_retry detail of the form "attempt N in DUR".
func fmtSscanf(detail string, attempt *int, dur *string) (int, error) {
	fields := strings.Fields(detail)
	if len(fields) != 4 || fields[0] != "attempt" || fields[2] != "in" {
		return 0, nil
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil {
		return 0, err
	}
	*attempt = n
	*dur = fields[3]
	return 2, nil
}
