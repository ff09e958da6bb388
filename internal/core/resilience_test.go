package core

import (
	"strings"
	"testing"

	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
	"mplsvpn/internal/trafgen"
)

// resilientSmall is buildSmall plus sites, telemetry, and the resilience
// plane.
func resilientSmall(seed uint64, opts ResilienceOptions) (*Backbone, *telemetry.Telemetry) {
	b := buildSmall(Config{Seed: seed, Scheduler: SchedHybrid})
	twoSites(b)
	tel := b.EnableTelemetry(TelemetryOptions{Horizon: opts.Horizon, JournalCap: 4096})
	b.EnableResilience(opts)
	return b, tel
}

// worstBackoff is the longest delay scheduleRetry picks after n failed
// attempts: the capped exponential backoff plus its whole jitter.
func worstBackoff(n int) sim.Time {
	d := min(retryBase<<uint(n), retryMax)
	return d + sim.Time(float64(d)*retryJitter)
}

// worstTimeToFloor bounds how long a lost intent that fits at no
// reservation above the floor takes to come back up at the floor:
// degradeAfter failed attempts per shrink step, then one retry at the floor.
func worstTimeToFloor() sim.Time {
	var d sim.Time
	for frac := 1.0; frac > minBandwidthFrac; frac *= shrinkFactor {
		for n := 0; n < degradeAfter; n++ {
			d += worstBackoff(n)
		}
	}
	return d + worstBackoff(0)
}

// A preempted TE intent must keep retrying with backoff and re-signal on
// its own once the preemptor releases the capacity — not wait for a
// reconvergence that may never come.
func TestTERetryResignalsWhenCapacityReturns(t *testing.T) {
	b, tel := resilientSmall(31, ResilienceOptions{Policy: DegradeNone, Horizon: 5 * sim.Second})
	if _, err := b.SetupTELSPForVPN("victim", "PE1", "PE2", "acme", 8e6, -1,
		rsvp.SetupOptions{SetupPri: 6, HoldPri: 6}); err != nil {
		t.Fatal(err)
	}
	in, _ := b.G.NodeByName("PE1")
	eg, _ := b.G.NodeByName("PE2")
	var blocker *rsvp.LSP
	b.At(100*sim.Millisecond, func() {
		l, err := b.RSVP.Setup("blocker", in, eg, 8e6, rsvp.SetupOptions{SetupPri: 2, HoldPri: 2})
		if err != nil {
			t.Errorf("blocker setup: %v", err)
			return
		}
		blocker = l
	})
	// The retry pending at the release fires at most one capped backoff
	// later (16 is scheduleRetry's shift cap).
	const release = sim.Second
	b.At(release, func() { b.RSVP.Teardown(blocker.ID) })
	b.Net.RunUntil(release + worstBackoff(16))

	ints := b.TEIntents()
	if len(ints) != 1 {
		t.Fatalf("intents = %+v", ints)
	}
	if ints[0].State != "up" || ints[0].Bandwidth != 8e6 || ints[0].Path == "" {
		t.Fatalf("victim not re-signalled: %+v", ints[0])
	}
	j := tel.Journal.Render()
	if !strings.Contains(j, "te_retry") {
		t.Fatalf("journal missing te_retry:\n%s", j)
	}
}

// Persistent no-path shrinks the reservation step by step down to the
// floor (journaled), and a restore probe lifts it back to the full
// reservation once the capacity returns.
func TestTEDegradeShrinkThenRestore(t *testing.T) {
	const probe = 100 * sim.Millisecond
	b, tel := resilientSmall(32, ResilienceOptions{
		Policy: DegradeShrink, RestoreProbe: probe, Horizon: 5 * sim.Second,
	})
	if _, err := b.SetupTELSPForVPN("victim", "PE1", "PE2", "acme", 8e6, -1,
		rsvp.SetupOptions{SetupPri: 6, HoldPri: 6}); err != nil {
		t.Fatal(err)
	}
	in, _ := b.G.NodeByName("PE1")
	eg, _ := b.G.NodeByName("PE2")
	var blocker *rsvp.LSP
	// 7 Mb/s preemptor: the victim's 8 Mb/s no longer fits (3 Mb/s free),
	// so it must shrink 8 -> 4 -> 2 (the 25% floor) to get back up.
	const preempt = 100 * sim.Millisecond
	b.At(preempt, func() {
		l, err := b.RSVP.Setup("blocker", in, eg, 7e6, rsvp.SetupOptions{SetupPri: 2, HoldPri: 2})
		if err != nil {
			t.Errorf("blocker setup: %v", err)
			return
		}
		blocker = l
	})
	floor := 8e6 * minBandwidthFrac
	atFloor := preempt + worstTimeToFloor()
	var midRun TEIntentStatus
	b.At(atFloor, func() { midRun = b.TEIntents()[0] })
	b.At(atFloor+probe, func() { b.RSVP.Teardown(blocker.ID) })
	b.Net.RunUntil(atFloor + 3*probe)

	if midRun.State != "degraded" || midRun.Bandwidth != floor {
		t.Fatalf("mid-run intent = %+v, want degraded at the %.0f b/s floor", midRun, floor)
	}
	got := b.TEIntents()[0]
	if got.State != "up" || got.Bandwidth != 8e6 {
		t.Fatalf("after capacity returned: %+v, want full 8 Mb/s up", got)
	}
	j := tel.Journal.Render()
	for _, want := range []string{"te_degraded", "te_restored"} {
		if !strings.Contains(j, want) {
			t.Fatalf("journal missing %q:\n%s", want, j)
		}
	}
}

// Fault-injection calls with broken preconditions return errors and leave
// an op_rejected journal trail instead of panicking.
func TestFaultInjectionRejections(t *testing.T) {
	b, tel := resilientSmall(33, ResilienceOptions{Horizon: sim.Second})

	if err := b.FailLink("PE1", "NOPE", 0); err == nil {
		t.Fatal("unknown node accepted")
	}
	if err := b.FailLink("PE1", "P2", 0); err == nil {
		t.Fatal("nonexistent link accepted")
	}
	if err := b.FailLink("PE1", "P1", 0); err != nil {
		t.Fatal(err)
	}
	if err := b.FailLink("PE1", "P1", 0); err == nil {
		t.Fatal("double fail accepted")
	}
	if err := b.RestoreLink("P1", "P2", 0); err == nil {
		t.Fatal("restore of healthy link accepted")
	}
	if err := b.RestoreLink("PE1", "P1", 0); err != nil {
		t.Fatal(err)
	}
	if err := b.CrashNode("hq", 0); err == nil {
		t.Fatal("crash of a CE accepted")
	}
	if err := b.CrashNode("NOPE", 0); err == nil {
		t.Fatal("crash of unknown node accepted")
	}
	if err := b.RestartNode("P1", 0); err == nil {
		t.Fatal("restart of a healthy node accepted")
	}
	if err := b.CrashNode("P1", 0); err != nil {
		t.Fatal(err)
	}
	if err := b.CrashNode("P1", 0); err == nil {
		t.Fatal("double crash accepted")
	}
	if err := b.RestartNode("P1", 0); err != nil {
		t.Fatal(err)
	}
	if err := b.CutSiteAttachment("NOPE"); err == nil {
		t.Fatal("cut of unknown site accepted")
	}
	if err := b.CutSiteAttachment("hq"); err != nil {
		t.Fatal(err)
	}
	if err := b.CutSiteAttachment("hq"); err == nil {
		t.Fatal("double cut accepted")
	}
	if err := b.RestoreSiteAttachment("hq"); err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreSiteAttachment("hq"); err == nil {
		t.Fatal("double uncut accepted")
	}
	if !strings.Contains(tel.Journal.Render(), "op_rejected") {
		t.Fatal("rejections not journaled")
	}
}

// A crashed P router partitions the chain topology; a restart heals it.
// Both transitions reconverge and are visible from the forwarding tables.
func TestCrashRestartForwardingState(t *testing.T) {
	b, tel := resilientSmall(34, ResilienceOptions{Horizon: sim.Second})
	dst, ok := b.SiteAddr("branch")
	if !ok {
		t.Fatal("no branch site")
	}
	if tr := b.TraceRoute("hq", dst, 0); !tr.Delivered {
		t.Fatalf("baseline trace failed: %s", tr)
	}
	if err := b.CrashNode("P1", 0); err != nil {
		t.Fatal(err)
	}
	if tr := b.TraceRoute("hq", dst, 0); tr.Delivered {
		t.Fatalf("trace delivered across a crashed node:\n%s", tr)
	}
	if err := b.RestartNode("P1", 0); err != nil {
		t.Fatal(err)
	}
	if tr := b.TraceRoute("hq", dst, 0); !tr.Delivered {
		t.Fatalf("trace still broken after restart:\n%s", tr)
	}
	j := tel.Journal.Render()
	for _, want := range []string{"node_down", "node_up"} {
		if !strings.Contains(j, want) {
			t.Fatalf("journal missing %q:\n%s", want, j)
		}
	}
}

// FRR local repair must activate at min(detect, LocalRepairDelay): with a
// sub-millisecond detection but a control plane stalled by message loss,
// the bypass is in place well before reconvergence would be.
func TestFRRFloorBeatsStalledReconvergence(t *testing.T) {
	b := NewBackbone(Config{Seed: 35, Scheduler: SchedHybrid, FRR: true})
	b.AddPE("PE1")
	b.AddP("P1")
	b.AddP("P2")
	b.AddPE("PE2")
	b.Link("PE1", "P1", 10e6, sim.Millisecond, 1)
	b.Link("P1", "PE2", 10e6, sim.Millisecond, 1)
	b.Link("PE1", "P2", 10e6, sim.Millisecond, 2)
	b.Link("P2", "PE2", 10e6, sim.Millisecond, 2)
	b.BuildProvider()
	twoSites(b)
	dst, _ := b.SiteAddr("branch")
	// Every reconvergence trigger is lost and retransmitted 300 ms later.
	b.SetControlPlaneLoss(1.0, 300*sim.Millisecond)

	const detect = 200 * sim.Microsecond
	b.At(sim.Second, func() { b.FailLink("P1", "PE2", detect) })
	var repaired, reconverged *Trace
	// 500 us after the failure: past min(detect, LocalRepairDelay) = 200 us
	// but long before the stalled reconvergence at ~300 ms.
	b.At(sim.Second+500*sim.Microsecond, func() { repaired = b.TraceRoute("hq", dst, 0) })
	b.At(2*sim.Second, func() { reconverged = b.TraceRoute("hq", dst, 0) })
	b.Net.RunUntil(3 * sim.Second)

	if repaired == nil || !repaired.Delivered {
		t.Fatalf("bypass not active 500us after failure (repair slower than min(detect, LocalRepairDelay)):\n%s", repaired)
	}
	if reconverged == nil || !reconverged.Delivered {
		t.Fatalf("reconvergence broken:\n%s", reconverged)
	}
}

// runCoreChaosScenario drives a fault script — flap train, node
// crash/restart, attachment cut, lossy control plane — with the full
// telemetry + resilience planes on, using the core primitives directly.
func runCoreChaosScenario(seed uint64) (*Backbone, *telemetry.Telemetry) {
	b, voice, bulk := breachBackbone(seed)
	tel := b.EnableTelemetry(TelemetryOptions{Horizon: 6 * sim.Second, JournalCap: 4096})
	b.EnableResilience(ResilienceOptions{Horizon: 6 * sim.Second})
	b.SetControlPlaneLoss(0.3, 200*sim.Millisecond)
	trafgen.CBR(b.Net, voice, 160, 20*sim.Millisecond, 0, 6*sim.Second)
	trafgen.CBR(b.Net, bulk, 1400, 2*sim.Millisecond, 0, 6*sim.Second)
	for i := 0; i < 4; i++ {
		at := sim.Second + sim.Time(i)*400*sim.Millisecond
		b.At(at, func() { b.FailLink("PEb", "P2", 10*sim.Millisecond) })
		b.At(at+200*sim.Millisecond, func() { b.RestoreLink("PEb", "P2", 10*sim.Millisecond) })
	}
	b.At(3*sim.Second, func() { b.CrashNode("P2", 50*sim.Millisecond) })
	b.At(4*sim.Second, func() { b.RestartNode("P2", 50*sim.Millisecond) })
	b.At(4500*sim.Millisecond, func() { b.CutSiteAttachment("b-src") })
	b.At(5*sim.Second, func() { b.RestoreSiteAttachment("b-src") })
	b.Net.RunUntil(7 * sim.Second)
	return b, tel
}

// Chaos-flavored determinism: the fault script above, run twice with the
// same seed, must produce byte-identical journals and final control-plane
// state even with jittered retries and probabilistic control-plane loss.
func TestChaosScenarioDeterminism(t *testing.T) {
	b1, tel1 := runCoreChaosScenario(21)
	b2, tel2 := runCoreChaosScenario(21)

	j1, j2 := tel1.Journal.Render(), tel2.Journal.Render()
	if j1 != j2 {
		t.Fatalf("journals differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", j1, j2)
	}
	d1, d2 := b1.StateDigest(), b2.StateDigest()
	if d1 != d2 {
		t.Fatalf("state digests differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", d1, d2)
	}
	for _, want := range []string{"link_down", "link_up", "node_down", "node_up"} {
		if !strings.Contains(j1, want) {
			t.Fatalf("journal missing %q:\n%s", want, j1)
		}
	}
	for _, st := range b1.TEIntents() {
		if st.State == "down" {
			t.Fatalf("intent %s stuck down after scenario:\n%s", st.Name, j1)
		}
	}
	if b1.IsolationViolations != 0 {
		t.Fatalf("isolation violations = %d", b1.IsolationViolations)
	}
	if err := b1.Net.CheckConservation(); err != nil {
		t.Fatalf("byte conservation: %v", err)
	}
}
