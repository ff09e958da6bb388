package chaos

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/bgp"
	"mplsvpn/internal/core"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

// reflScenario exercises the clustered-reflection and incremental-SPF state
// across a checkpoint boundary: a route reflector crashed mid-GR at the
// snapshot instant, a link failure whose detection window straddles the
// checkpoint (so the queued link delta must ride through the snapshot for
// the restored run to reconverge incrementally, not fully), a flap train
// that reconverges through the incremental path before anything crashes,
// and damping decaying over all of it.
const reflScenario = `
survivability hello=20ms hold=3 restart=900ms gr=on
damping penalty=1000 suppress=1600 reuse=1200 halflife=3s
ctrlloss 0.2 extra=120ms
flap PE2 P1 at=800ms count=3 down=60ms up=90ms detect=10ms jitter=20ms
crash PE1 at=2600ms detect=20ms
fail PE4 P1 at=3080ms detect=60ms
restart PE1 at=3600ms detect=20ms
restore PE4 P1 at=3800ms detect=20ms
crash P2 at=4500ms detect=50ms
restart P2 at=4900ms detect=50ms
`

// reflSnapT is the snapshot instant: PE1 — a reflector — is crashed with
// its GR deadline armed (restart lands at 3600ms), and the PE4-P1 failure
// at 3080ms sits inside its 60ms detection window, so the pending link
// delta is non-empty in the snapshot.
const reflSnapT = 3120 * sim.Millisecond

const reflHorizon = 7 * sim.Second

// buildReflRig is buildSnapRig's clustered twin: six PEs partitioned into
// two reflection clusters (two reflectors + one client each) instead of the
// full iBGP mesh, dual-homed to a two-router core so every single failure
// leaves a detour.
func buildReflRig(t testing.TB, shards, workers int) *snapRig {
	t.Helper()
	sc, err := ParseScenario(strings.NewReader(reflScenario), "refl")
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewBackbone(core.Config{Seed: 37, Scheduler: core.SchedHybrid,
		ReflectorClusters: 2})
	pes := []string{"PE1", "PE2", "PE3", "PE4", "PE5", "PE6"}
	ids := make([]topo.NodeID, len(pes))
	for i, n := range pes {
		ids[i] = b.AddPE(n)
	}
	b.AddP("P1")
	b.AddP("P2")
	for _, pe := range pes {
		b.Link(pe, "P1", 5e6, sim.Millisecond, 1)
		b.Link(pe, "P2", 5e6, sim.Millisecond, 2)
	}
	b.Link("P1", "P2", 10e6, sim.Millisecond, 1)
	b.BuildProvider()
	if b.BGP.Layout != bgp.Clustered {
		t.Fatalf("layout = %v, want Clustered", b.BGP.Layout)
	}
	// The crash directive targets PE1 by name, so the scenario only tests
	// what it claims if PE1 was elected reflector. The election takes the
	// lowest-numbered members of each cluster and clusters sort by lowest
	// member, so the first-added PE always leads the first cluster.
	if !isReflector(b.BGP.Clusters(), ids[0]) {
		t.Fatalf("PE1 not elected reflector; clusters = %+v", b.BGP.Clusters())
	}

	for i, vpn := range []string{"alpha", "beta", "gamma"} {
		b.DefineVPN(vpn)
		b.AddSite(core.SiteSpec{VPN: vpn, Name: fmt.Sprintf("%c1", 'a'+i), PE: pes[i],
			Prefixes: []addr.Prefix{addr.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", 2*i+1))}})
		b.AddSite(core.SiteSpec{VPN: vpn, Name: fmt.Sprintf("%c2", 'a'+i), PE: pes[i+3],
			Prefixes: []addr.Prefix{addr.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", 2*i+2))}})
	}
	b.ConvergeVPNs()

	b.EnableTelemetry(core.TelemetryOptions{Horizon: reflHorizon, JournalCap: 4096})
	b.EnableResilience(core.ResilienceOptions{
		Policy:       core.DegradeShrink,
		RestoreProbe: 250 * sim.Millisecond,
		Horizon:      reflHorizon,
	})
	if _, err := b.SetupTELSPForVPN("te-alpha", "PE1", "PE4", "alpha", 2e6, -1, rsvp.SetupOptions{}); err != nil {
		t.Fatal(err)
	}

	surv := *sc.Surv
	surv.Horizon = reflHorizon
	b.EnableSurvivability(surv)
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
	fc, err := b.FlowBetween("fc", "c1", "c2", 5004)
	if err != nil {
		t.Fatal(err)
	}
	b.RegisterSource(trafgen.CBR(b.Net, fa, 500, 5*sim.Millisecond, 29*sim.Microsecond, reflHorizon))
	b.RegisterSource(trafgen.Poisson(b.Net, fb, 800, 180, 137*sim.Microsecond, reflHorizon, b.E.Rand().Fork()))
	b.RegisterSource(trafgen.OnOff(b.Net, fc, 700, 2*sim.Millisecond,
		40*sim.Millisecond, 25*sim.Millisecond, 211*sim.Microsecond, reflHorizon, b.E.Rand().Fork()))

	inj := New(b, sc)
	inj.Schedule()
	return &snapRig{b: b, inj: inj}
}

func isReflector(cs []bgp.Cluster, n topo.NodeID) bool {
	for _, c := range cs {
		for _, rr := range c.RRs {
			if rr == n {
				return true
			}
		}
	}
	return false
}

// reflFingerprint extends the shared fingerprint with the ledgers this PR
// introduced: reflection loop drops and update volume (both serialized, so
// a restored run must agree exactly) plus the session layout size.
func reflFingerprint(r *snapRig) string {
	return r.fingerprint() + fmt.Sprintf("rr: sessions=%d loop_prevented=%d updates=%d\n",
		r.b.BGP.SessionCount(), r.b.BGP.LoopPrevented, r.b.BGP.UpdatesSent)
}

func runReflUninterrupted(t testing.TB, shards, workers int) string {
	t.Helper()
	rig := buildReflRig(t, shards, workers)
	rig.b.Net.RunUntil(reflHorizon + sim.Second)
	if err := rig.b.Net.CheckConservation(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	if len(rig.inj.Checker.Violations) != 0 {
		t.Fatalf("shards=%d invariant violations: %v", shards, rig.inj.Checker.Violations)
	}
	// The scenario must actually have driven the new machinery: the flap
	// train reconverges through incremental SPF, and the reflector mesh
	// drops looped reflections.
	if rig.b.IGP.ISPFRuns == 0 {
		t.Fatalf("shards=%d: no incremental SPF runs; scenario exercises only full recomputes", shards)
	}
	if rig.b.BGP.LoopPrevented == 0 {
		t.Fatalf("shards=%d: reflection loop prevention never fired", shards)
	}
	return reflFingerprint(rig)
}

func runReflInterrupted(t testing.TB, shards, workers int) string {
	t.Helper()
	const fp = "refl-snap"
	rig1 := buildReflRig(t, shards, workers)
	rig1.b.Net.RunUntil(reflSnapT)
	data, err := rig1.b.Snapshot(fp)
	if err != nil {
		t.Fatalf("shards=%d snapshot: %v", shards, err)
	}

	rig2 := buildReflRig(t, shards, workers)
	if err := rig2.b.Restore(data, fp); err != nil {
		t.Fatalf("shards=%d restore: %v", shards, err)
	}
	data2, err := rig2.b.Snapshot(fp)
	if err != nil {
		t.Fatalf("shards=%d re-snapshot: %v", shards, err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("shards=%d: snapshot(restore(s)) != s (%d vs %d bytes)", shards, len(data), len(data2))
	}

	rig2.b.Net.RunUntil(reflHorizon + sim.Second)
	if err := rig2.b.Net.CheckConservation(); err != nil {
		t.Fatalf("shards=%d post-restore: %v", shards, err)
	}
	if len(rig2.inj.Checker.Violations) != 0 {
		t.Fatalf("shards=%d post-restore invariant violations: %v", shards, rig2.inj.Checker.Violations)
	}
	return reflFingerprint(rig2)
}

// TestReflectorSnapshotBoundary is the chaos-boundary contract for the
// reflector and incremental-SPF state: run-to-T + restore must finish
// byte-identical to the uninterrupted run at 1 and 8 shards, with a
// reflector crash (GR armed) and an undetected link failure both spanning
// the checkpoint instant.
func TestReflectorSnapshotBoundary(t *testing.T) {
	for _, shards := range []int{1, 8} {
		want := runReflUninterrupted(t, shards, 4)
		got := runReflInterrupted(t, shards, 4)
		if got != want {
			t.Errorf("shards=%d: restored run diverged; first difference:\n%s",
				shards, firstDiff(want, got))
		}
	}
}
