package experiments

import (
	"reflect"
	"strings"
	"testing"

	"mplsvpn/internal/sim"
)

func TestE1ShapeMatchesPaper(t *testing.T) {
	res := E1Scalability([]int{10, 50, 200})
	// The paper's §2.1 numbers.
	if res.OverlayVCs[0] != 45 {
		t.Fatalf("10 sites -> %d VCs, paper says 45", res.OverlayVCs[0])
	}
	if res.OverlayVCs[2] != 19900 {
		t.Fatalf("200 sites -> %d VCs, paper says ~20,000", res.OverlayVCs[2])
	}
	// MPLS state grows linearly: the 200-site total is ~20x the 10-site
	// total, not 400x.
	ratio := float64(res.MPLSTotalState[2]) / float64(res.MPLSTotalState[0])
	if ratio > 40 {
		t.Fatalf("MPLS state grew superlinearly: ratio %.1f", ratio)
	}
	// Overlay crosses over MPLS well before 200 sites.
	if res.OverlayVCs[2] < 10*res.MPLSTotalState[2] {
		t.Fatalf("overlay %d vs MPLS %d: expected >=10x gap at 200 sites",
			res.OverlayVCs[2], res.MPLSTotalState[2])
	}
	// iBGP sessions stay constant in the 4-PE backbone.
	if res.BGPSessions[0] != res.BGPSessions[2] {
		t.Fatal("iBGP session count depends on site count")
	}
	if res.Table.NumRows() != 3 {
		t.Fatalf("table rows = %d", res.Table.NumRows())
	}
}

func TestE2QoSProtectsVoice(t *testing.T) {
	res := E2QoS(2 * sim.Second)
	// The architecture (hybrid + EXP mapping) must hold voice loss at ~0
	// and p99 well under the FIFO baselines.
	if res.VoiceLoss["mpls-hybrid"] > 0.001 {
		t.Fatalf("hybrid voice loss = %v", res.VoiceLoss["mpls-hybrid"])
	}
	for _, baseline := range []string{"plain-ip-fifo", "mpls-fifo"} {
		if res.VoiceP99["mpls-hybrid"] >= res.VoiceP99[baseline] {
			t.Fatalf("hybrid p99 %.2f not better than %s %.2f",
				res.VoiceP99["mpls-hybrid"], baseline, res.VoiceP99[baseline])
		}
	}
	// MPLS without EXP mapping must NOT protect voice: labels alone are
	// not QoS (the paper's point that DiffServ+MPLS must be combined).
	if res.VoiceP99["mpls-hybrid-noexp"] < 2*res.VoiceP99["mpls-hybrid"] {
		t.Fatalf("no-EXP ablation too healthy: %.2f vs %.2f",
			res.VoiceP99["mpls-hybrid-noexp"], res.VoiceP99["mpls-hybrid"])
	}
	// Overload lands on bulk in the QoS configs.
	if res.BulkLoss["mpls-hybrid"] <= 0 {
		t.Fatal("bulk saw no loss despite 1.4x overload")
	}
}

func TestE3IPsecHidesQoS(t *testing.T) {
	res := E3IPsec(2 * sim.Second)
	// Hidden ToS: voice suffers like best effort. ToS copy or MPLS: voice
	// protected.
	if res.VoiceLoss["mpls-vpn"] > 0.001 {
		t.Fatalf("mpls voice loss = %v", res.VoiceLoss["mpls-vpn"])
	}
	if res.VoiceP99["ipsec-hidden"] <= 2*res.VoiceP99["mpls-vpn"] {
		t.Fatalf("ipsec-hidden voice p99 %.2f vs mpls %.2f: encryption should have erased QoS",
			res.VoiceP99["ipsec-hidden"], res.VoiceP99["mpls-vpn"])
	}
	if res.VoiceP99["ipsec-toscopy"] >= res.VoiceP99["ipsec-hidden"] {
		t.Fatal("ToS copy did not restore QoS")
	}
	if !strings.Contains(res.Overhead.String(), "ipsec-esp") {
		t.Fatal("overhead table incomplete")
	}
}

func TestE4LabelLookupBeatsLPM(t *testing.T) {
	res := E4Forwarding([]int{1000, 10000}, 200000)
	if res.NsPerOp["ilm"] <= 0 {
		t.Fatal("no ILM measurement")
	}
	// Label lookup must not be slower than the large LPM table.
	if res.NsPerOp["ilm"] > res.NsPerOp["lpm-10000"] {
		t.Fatalf("ILM %.1fns slower than LPM-10k %.1fns", res.NsPerOp["ilm"], res.NsPerOp["lpm-10000"])
	}
}

func TestE5TEAvoidsCongestion(t *testing.T) {
	res := E5TrafficEngineering(2 * sim.Second)
	if !res.LongPathUsed {
		t.Fatal("TE config never used the long path")
	}
	// IGP: both flows lose heavily. TE: both clean.
	igpLoss := res.Loss["igp-shortest/flowA"] + res.Loss["igp-shortest/flowB"]
	teLoss := res.Loss["rsvp-te/flowA"] + res.Loss["rsvp-te/flowB"]
	if igpLoss < 0.05 {
		t.Fatalf("IGP baseline lost only %.3f: bottleneck not binding", igpLoss)
	}
	if teLoss > 0.001 {
		t.Fatalf("TE config still lost %.3f", teLoss)
	}
}

func TestE6NoViolations(t *testing.T) {
	res := E6Isolation(5, 600)
	if res.Violations != 0 {
		t.Fatalf("isolation violations: %d", res.Violations)
	}
	if res.WrongReachability != 0 {
		t.Fatalf("wrong reachability outcomes: %d", res.WrongReachability)
	}
}

func TestE7MappingFidelity(t *testing.T) {
	res := E7EdgeMapping()
	if res.Mismatches != 0 {
		t.Fatalf("E7 mismatches: %d\n%s", res.Mismatches, res.Table.String())
	}
}

func TestE8RestorationAndScaling(t *testing.T) {
	res := E8Resilience(3 * sim.Second)
	// Loss grows monotonically with detection delay; instant detection
	// loses at most a packet or two already in flight on the dying link.
	if res.LossByDetect[0] > 0.005 {
		t.Fatalf("instant detection lost traffic: %v", res.LossByDetect[0])
	}
	if !(res.LossByDetect[50] < res.LossByDetect[200] && res.LossByDetect[200] < res.LossByDetect[1000]) {
		t.Fatalf("loss not monotone in detection delay: %v", res.LossByDetect)
	}
	// Full mesh is quadratic, RR linear.
	if res.SessionsFullMesh[32] != 32*31/2 {
		t.Fatalf("full mesh sessions at 32 PEs = %d", res.SessionsFullMesh[32])
	}
	if res.SessionsRR[32] != 31 {
		t.Fatalf("RR sessions at 32 PEs = %d", res.SessionsRR[32])
	}
}

func TestE9AblationsTradeCostNotCorrectness(t *testing.T) {
	res := E9Ablations(sim.Second)
	// All ablations deliver identically.
	base := res.Delivered["baseline"]
	if base == 0 {
		t.Fatal("baseline delivered nothing")
	}
	for name, d := range res.Delivered {
		if d != base {
			t.Fatalf("ablation %s delivered %d != baseline %d", name, d, base)
		}
	}
	// Independent mode converges in fewer rounds.
	if res.IndependentRounds >= res.OrderedRounds {
		t.Fatalf("independent %d rounds >= ordered %d", res.IndependentRounds, res.OrderedRounds)
	}
	// Disabling PHP doubles the egress PE's pop work.
	if res.PopsAtEgressUHP != 2*res.PopsAtEgressPHP {
		t.Fatalf("UHP egress pops = %d, want 2x PHP's %d", res.PopsAtEgressUHP, res.PopsAtEgressPHP)
	}
}

func TestE10WeakestCarrierBreaksSLA(t *testing.T) {
	res := E10MultiCarrier(2 * sim.Second)
	if res.VoiceP99["both-qos"] > 20 {
		t.Fatalf("cross-carrier QoS p99 = %.2f ms", res.VoiceP99["both-qos"])
	}
	// One best-effort carrier in the chain breaks the end-to-end SLA.
	if res.VoiceP99["as2-besteffort"] < 2*res.VoiceP99["both-qos"] {
		t.Fatalf("weakest link did not break SLA: %.2f vs %.2f",
			res.VoiceP99["as2-besteffort"], res.VoiceP99["both-qos"])
	}
	if res.VoiceLoss["both-qos"] > 0.001 {
		t.Fatalf("voice loss with full QoS: %v", res.VoiceLoss["both-qos"])
	}
}

func TestE11TiersSeparate(t *testing.T) {
	res := E11VPNTiers(2 * sim.Second)
	if !(res.P99["gold"] < res.P99["silver"] && res.P99["silver"] < res.P99["bronze"]) {
		t.Fatalf("tiers not ordered: %v", res.P99)
	}
	if res.Loss["gold"] > 0.001 {
		t.Fatalf("gold lost traffic: %v", res.Loss["gold"])
	}
	if !res.CheatBlocked {
		t.Fatal("bronze customer bought gold service by self-marking EF")
	}
}

func TestE12FRRIndependentOfDetection(t *testing.T) {
	res := E12FastReroute(2 * sim.Second)
	// Unprotected loss grows with detection delay.
	if !(res.Loss["none"][100] < res.Loss["none"][1000]) {
		t.Fatalf("unprotected loss not growing: %v", res.Loss["none"])
	}
	// FRR loss is tiny and flat regardless of head-end convergence time.
	for _, d := range []int{100, 300, 1000} {
		if res.Loss["frr"][d] > 0.01 {
			t.Fatalf("FRR loss at detect=%dms: %v", d, res.Loss["frr"][d])
		}
	}
}

func TestE13OptionsTradeLinksForState(t *testing.T) {
	const vpns = 4
	res := E13InterASOptions(sim.Second, vpns)
	// Option A: one subinterface per VPN beside the shared bearer; B and C
	// share the bearer alone.
	if want := map[string]int{"A": vpns + 1, "B": 1, "C": 1}; !reflect.DeepEqual(res.Links, want) {
		t.Fatalf("interconnect links %v, want %v", res.Links, want)
	}
	if d := res.Delivered; d["A"] == 0 || d["B"] != d["A"] || d["C"] != d["A"] {
		t.Fatalf("options deliver differently: %v", d)
	}
}

func TestE14ResilienceShrinksLDPFallbackWindow(t *testing.T) {
	res := E14FlapStorm(0)
	if res.Violations != 0 {
		t.Fatalf("invariant violations = %d", res.Violations)
	}
	// Baseline: a squeezed intent rides LDP until the next reconvergence.
	// Resilient: it comes back (degraded) within a few retry backoffs.
	if res.NoReservation["resilient"] >= res.NoReservation["baseline"] {
		t.Fatalf("resilience did not shrink the no-reservation window: %v", res.NoReservation)
	}
	if res.Degraded["resilient"] == 0 {
		t.Fatal("no degraded samples — shrink policy never engaged")
	}
	if res.Retries == 0 || res.Degradations == 0 || res.Restores == 0 {
		t.Fatalf("journal counts: retries=%d degradations=%d restores=%d",
			res.Retries, res.Degradations, res.Restores)
	}
}

func TestE16GracefulRestartPreservesForwarding(t *testing.T) {
	res := E16GracefulRestart(0)
	if res.Violations != 0 {
		t.Fatalf("invariant violations = %d", res.Violations)
	}
	// Graceful restart: the crashed PE's routes are never withdrawn and the
	// flow riding its stale forwarding state loses nothing.
	if res.Withdrawals["gr-on"] != 0 {
		t.Fatalf("gr-on sent %d withdrawals, want 0", res.Withdrawals["gr-on"])
	}
	if res.Loss["gr-on"] != 0 {
		t.Fatalf("gr-on lost %.2f%% of the victim flow, want 0", res.Loss["gr-on"]*100)
	}
	if res.StaleRetained == 0 {
		t.Fatal("gr-on retained no stale routes — graceful restart never engaged")
	}
	// Without it, the same storm withdraws routes and drops packets.
	if res.Withdrawals["gr-off"] == 0 {
		t.Fatal("gr-off sent no withdrawals — session loss had no effect")
	}
	if res.Loss["gr-off"] == 0 {
		t.Fatal("gr-off lost nothing — the outage was not measurable")
	}
	// Both storms flapped and re-established sessions.
	for _, cfg := range []string{"gr-off", "gr-on"} {
		if res.Flaps[cfg] < 2 || res.Restores[cfg] < 2 {
			t.Fatalf("%s: flaps=%d restores=%d, want >= 2 each",
				cfg, res.Flaps[cfg], res.Restores[cfg])
		}
	}
	if res.SessionFlapEvents == 0 || res.SessionRestoredEvents == 0 {
		t.Fatalf("journal events: flap=%d restored=%d",
			res.SessionFlapEvents, res.SessionRestoredEvents)
	}
}

func TestE17PoolingAblation(t *testing.T) {
	// Small and fast: 50 sites, 100 ms. The claims under test are shape,
	// not absolute throughput: the pooled data plane stays within half an
	// object per packet (steady state is zero; the budget absorbs one-time
	// growth of pools, queue rings and heap arrays amortised over the run),
	// the unpooled ablation allocates several objects per packet, and both
	// deliver traffic.
	res := E17ZeroAllocDataPlane(100*sim.Millisecond, []int{50})
	if len(res.Runs) != 2 {
		t.Fatalf("runs = %d, want pooled + unpooled", len(res.Runs))
	}
	pooled, unpooled := res.Runs[0], res.Runs[1]
	if pooled.Config != "pooled" || unpooled.Config != "unpooled" {
		t.Fatalf("configs = %q, %q", pooled.Config, unpooled.Config)
	}
	if pooled.Delivered == 0 || unpooled.Delivered == 0 {
		t.Fatalf("delivered: pooled=%d unpooled=%d", pooled.Delivered, unpooled.Delivered)
	}
	if pooled.Delivered != unpooled.Delivered {
		t.Fatalf("pooling changed results: pooled delivered %d, unpooled %d",
			pooled.Delivered, unpooled.Delivered)
	}
	if pooled.AllocsPerPkt > 0.5 {
		t.Fatalf("pooled data plane allocates %.3f objects/pkt, budget 0.5", pooled.AllocsPerPkt)
	}
	if unpooled.AllocsPerPkt < 2 {
		t.Fatalf("unpooled ablation allocates %.2f objects/pkt — ablation not ablating", unpooled.AllocsPerPkt)
	}
}

// TestE22ParallelSweep holds the sweep's exact results: every cell equals
// the serial fingerprint, and every cell executes the same events for the
// same packets, 6 per delivered packet. A change in that count is a change
// in the work the engine or the data plane does per packet.
func TestE22ParallelSweep(t *testing.T) {
	res := E22ParallelSweep(20*sim.Millisecond, []int{1, 2}, []int{1, 8})
	if !res.AllIdentical {
		t.Fatalf("a sweep cell diverged from the serial fingerprint:\n%s", res.Table.String())
	}
	if len(res.Runs) != 6 {
		t.Fatalf("%d cells, want 2 GOMAXPROCS x (serial + 2 shard counts)", len(res.Runs))
	}
	for _, r := range res.Runs {
		if r.Events != 9258 || r.Delivered != 1543 {
			t.Fatalf("gomaxprocs %d shards %d: %d events for %d packets, want 9258 for 1543",
				r.GoMaxProcs, r.Shards, r.Events, r.Delivered)
		}
	}
}

func TestE18TransactionalProvisioning(t *testing.T) {
	res := E18TransactionalProvisioning(2 * sim.Second)
	if res.VPNs < 150 || res.Sites < 300 {
		t.Fatalf("spec too small: %d VPNs, %d sites", res.VPNs, res.Sites)
	}
	for _, cfg := range []string{"clean", "kill-mid-commit", "kill-pre-commit"} {
		if !res.Converged[cfg] {
			t.Fatalf("%s did not converge", cfg)
		}
		if !res.DigestMatch[cfg] {
			t.Fatalf("%s diverged from the clean run's digest", cfg)
		}
		if res.Batches[cfg] < 2 {
			t.Fatalf("%s: %d batches — rate limiting never engaged", cfg, res.Batches[cfg])
		}
	}
	// The mid-commit kill must have orphaned a commit for the server's
	// confirm timer to erase; otherwise the kill missed its window.
	if res.AutoRolled["kill-mid-commit"] < 1 {
		t.Fatalf("kill-mid-commit: auto-rollback never fired (%d)", res.AutoRolled["kill-mid-commit"])
	}
	// The pre-commit kill abandons a validated session: no rollback needed.
	if res.AutoRolled["kill-pre-commit"] != 0 || res.Rollbacks["kill-pre-commit"] != 0 {
		t.Fatalf("kill-pre-commit rolled back (%d/%d) — ops leaked into the backbone",
			res.Rollbacks["kill-pre-commit"], res.AutoRolled["kill-pre-commit"])
	}
	if res.Table == nil || res.Table.String() == "" {
		t.Fatal("table missing")
	}
}

func TestE20ControlPlaneScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled control-plane build; skipped with -short")
	}
	res := E20ControlPlaneScaling(false)
	// The clustered layout must compute the same best paths as the full
	// mesh wherever the full mesh is still computable.
	if !res.MeshEquivalent {
		t.Fatalf("clustered best paths diverged from the full mesh:\n%s", res.Comparison.String())
	}
	// Sessions collapse from O(N^2) to O(N·clusters): two orders of
	// magnitude at the headline size (scaled build: 1000 PEs, 10 clusters).
	if res.SessionsClustered*50 > res.SessionsFullMesh {
		t.Fatalf("sessions: clustered %d vs full mesh %d — less than 50x drop",
			res.SessionsClustered, res.SessionsFullMesh)
	}
	if res.HeadlineRoutes != res.HeadlinePEs*100 {
		t.Fatalf("headline originated %d routes, want %d", res.HeadlineRoutes, res.HeadlinePEs*100)
	}
	if res.LoopPrevented == 0 {
		t.Fatal("reflection loop prevention never fired during the headline converge")
	}
	// Incremental SPF/CSPF must match their full-recompute oracles exactly;
	// the wall-clock bar is loose, because one timed shot per tier is noisy.
	if !res.ISPFOracleOK || !res.ICSPFOracleOK {
		t.Fatalf("incremental recompute diverged from oracle: spf=%t cspf=%t",
			res.ISPFOracleOK, res.ICSPFOracleOK)
	}
	if res.ISPFSpeedup < 2 || res.ICSPFSpeedup < 2 {
		t.Fatalf("incremental recompute not faster: spf=%.1fx cspf=%.1fx",
			res.ISPFSpeedup, res.ICSPFSpeedup)
	}
}

func TestE21InterASSurvivability(t *testing.T) {
	res, err := E21InterASSurvivability()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"optionA", "optionB", "optionC"} {
		if !res.Conform[name] {
			t.Fatalf("%s missed its SLAs on the surviving providers:\n%s", name, res.Table.String())
		}
		if !res.DigestMatch[name] {
			t.Fatalf("%s: 8-shard run diverged from the serial digest", name)
		}
		// The outage must actually have happened: both beta peerings lost
		// and re-established, the extranet re-selected onto the backup, a
		// survivor's boundary plane rebuilt mid-outage, and a visible (but
		// bounded) loss dent from the detection + graceful-restart window.
		if res.Flaps[name] < 2 || res.Restores[name] < 2 {
			t.Fatalf("%s: flaps=%d restores=%d; want >= 2 each", name, res.Flaps[name], res.Restores[name])
		}
		if res.Failovers[name] == 0 || res.Reinstalls[name] == 0 {
			t.Fatalf("%s: failovers=%d reinstalls=%d; outage not exercised",
				name, res.Failovers[name], res.Reinstalls[name])
		}
		if res.LossPct[name]["voice"] < 1.0 {
			t.Fatalf("%s: voice loss %.2f%% — the outage left no dent, the experiment proves nothing",
				name, res.LossPct[name]["voice"])
		}
	}
	if res.Violations != 0 {
		t.Fatalf("%d invariant violations", res.Violations)
	}
}

func TestE19DayInTheLife(t *testing.T) {
	dir := t.TempDir()
	res, err := E19DayInTheLife(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 3 {
		t.Fatalf("only %d crash/resume cycles, want >= 3", res.Cycles)
	}
	if res.Checkpoints < res.Cycles {
		t.Fatalf("%d checkpoints for %d recoveries", res.Checkpoints, res.Cycles)
	}
	if !res.DigestMatch {
		// Bisect the run's checkpoint store, so the failure names the first
		// virtual-time window whose restored state left the reference.
		w, probes, err := LocalizeE19Divergence(dir)
		if err != nil {
			t.Fatalf("checkpointed day diverged from the uninterrupted day; bisect: %v", err)
		}
		t.Fatalf("checkpointed day diverged from the uninterrupted day, first in (%v, %v] after %d probes",
			sim.Time(w.Lo), sim.Time(w.Hi), probes)
	}
	if res.Violations != 0 {
		t.Fatalf("%d invariant violations", res.Violations)
	}
	if !res.Conform["mpls-te"] {
		t.Fatalf("MPLS/TE plane missed its SLAs:\n%s", res.Table.String())
	}
	if res.Conform["overlay-ipsec"] {
		t.Fatalf("overlay met every SLA — the comparison shows nothing:\n%s", res.Table.String())
	}
	if res.Suppressions < 1 || res.Reuses < 1 {
		t.Fatalf("damping never engaged (suppressed=%d reused=%d)", res.Suppressions, res.Reuses)
	}
	if res.Reoptimized < 1 {
		t.Fatal("no make-before-break reoptimization all day")
	}
}
