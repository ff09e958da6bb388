package chaos

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/core"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/trafgen"
)

// interASScenario drives a full peer-AS outage through the chaos DSL: beta
// (the transit carrier) goes dark at 2500ms, the inter-AS hello machine
// detects the silence and holds the stale boundary state through graceful
// restart, the selector fails the extranet over to the direct backup
// peering, and — while beta is still down — an intra-alpha link flap forces
// a full boundary reinstall on a survivor. Beta returns at 5500ms and the
// cheap two-hop path wins again after its reconvergence.
const interASScenario = `
survivability hello=20ms hold=3 restart=400ms gr=on
asfail beta at=2500ms
fail a-PE a-P1 at=3800ms detect=20ms
restore a-PE a-P1 at=4200ms detect=20ms
asrestore beta at=5500ms detect=100ms
`

// interASSnapT is the checkpoint instant: beta is crashed, every peering
// touching it is mid-graceful-restart (detected dead at ~2575ms, GR deadline
// ~3475ms), stale cross-provider routes are still installed, and the
// direct backup has not yet been selected. This is the hardest state the
// inter-AS codec must carry: failed-AS sets, peering hello state, GR
// deadlines, and boundary label chains for all three RFC 4364 options.
const interASSnapT = 3000 * sim.Millisecond

const interASHorizon = 7 * sim.Second

// interASRig is a three-carrier extranet with one peering per RFC 4364
// option, so a single snapshot exercises every flavour of boundary state:
//
//	alpha (hq site, redundant core) --option B-- beta (pure transit)
//	beta --option C-- gamma (plant site)
//	alpha --option A-- gamma (direct backup, abstractly expensive)
//
// Traffic from hq to plant therefore normally crosses a mixed B-then-C
// chain and fails over onto the option-A back-to-back VRF link when beta
// dies.
type interASRig struct {
	x   *core.InterAS
	fl  []*trafgen.Flow
	inj *Injector
}

// buildInterASRig constructs one fresh, unrun instance of the scenario —
// the Build function of the checkpoint protocol, called identically for
// the original run, the restore target, and the sharded variants.
func buildInterASRig(t testing.TB, shards, workers int) *interASRig {
	t.Helper()
	sc, err := ParseScenario(strings.NewReader(interASScenario), "interas")
	if err != nil {
		t.Fatal(err)
	}

	x := core.NewInterAS(31,
		[]string{"alpha", "beta", "gamma"},
		[]core.Config{
			{Seed: 101, Scheduler: core.SchedHybrid},
			{Seed: 102, Scheduler: core.SchedHybrid},
			{Seed: 103, Scheduler: core.SchedHybrid},
		})

	alpha := x.AS("alpha")
	alpha.AddPE("a-PE")
	alpha.AddP("a-P1")
	alpha.AddP("a-P2")
	alpha.AddPE("a-ASBR1")
	alpha.AddPE("a-ASBR2")
	alpha.Link("a-PE", "a-P1", 100e6, sim.Millisecond, 1)
	alpha.Link("a-PE", "a-P2", 100e6, sim.Millisecond, 1)
	alpha.Link("a-P1", "a-ASBR1", 100e6, sim.Millisecond, 1)
	alpha.Link("a-P2", "a-ASBR1", 100e6, sim.Millisecond, 1)
	alpha.Link("a-P1", "a-ASBR2", 100e6, sim.Millisecond, 1)
	alpha.Link("a-P2", "a-ASBR2", 100e6, sim.Millisecond, 1)
	alpha.BuildProvider()

	beta := x.AS("beta")
	beta.AddPE("b-ASBR1")
	beta.AddP("b-P")
	beta.AddPE("b-ASBR2")
	beta.Link("b-ASBR1", "b-P", 100e6, sim.Millisecond, 1)
	beta.Link("b-P", "b-ASBR2", 100e6, sim.Millisecond, 1)
	beta.BuildProvider()

	gamma := x.AS("gamma")
	gamma.AddPE("g-ASBR1")
	gamma.AddP("g-P")
	gamma.AddPE("g-PE")
	gamma.AddPE("g-ASBR2")
	gamma.Link("g-ASBR1", "g-P", 100e6, sim.Millisecond, 1)
	gamma.Link("g-P", "g-PE", 100e6, sim.Millisecond, 1)
	gamma.Link("g-P", "g-ASBR2", 100e6, sim.Millisecond, 1)
	gamma.BuildProvider()

	for _, asn := range []string{"alpha", "beta", "gamma"} {
		x.AS(asn).DefineVPN("extranet")
	}
	alpha.AddSite(core.SiteSpec{VPN: "extranet", Name: "hq", PE: "a-PE",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	gamma.AddSite(core.SiteSpec{VPN: "extranet", Name: "plant", PE: "g-PE",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	alpha.ConvergeVPNs()
	beta.ConvergeVPNs()
	gamma.ConvergeVPNs()

	for _, asn := range []string{"alpha", "beta", "gamma"} {
		x.AS(asn).EnableTelemetry(core.TelemetryOptions{Horizon: interASHorizon, JournalCap: 4096})
	}

	for _, asn := range []string{"alpha", "beta", "gamma"} {
		if err := x.SetASTransit(asn, 0.001, 100e6); err != nil {
			t.Fatal(err)
		}
	}
	add := func(spec core.PeeringSpec) {
		if _, err := x.AddPeering(spec); err != nil {
			t.Fatal(err)
		}
	}
	add(core.PeeringSpec{ASA: "alpha", ASBRA: "a-ASBR1", ASB: "beta", ASBRB: "b-ASBR1",
		VPNs: []string{"extranet"}, Option: core.OptionB, Delay: sim.Millisecond})
	add(core.PeeringSpec{ASA: "beta", ASBRA: "b-ASBR2", ASB: "gamma", ASBRB: "g-ASBR1",
		VPNs: []string{"extranet"}, Option: core.OptionC, Delay: sim.Millisecond})
	add(core.PeeringSpec{ASA: "alpha", ASBRA: "a-ASBR2", ASB: "gamma", ASBRB: "g-ASBR2",
		VPNs: []string{"extranet"}, Option: core.OptionA, Delay: sim.Millisecond,
		AbstractDelay: 0.050})
	x.ReconcilePeerings()

	// Intra-alpha sessionized control plane (from the scenario's
	// survivability directive) plus the inter-AS hello machine: detection
	// at 3 missed 25ms hellos, 900ms of graceful restart so the snapshot
	// at 3000ms lands mid-GR.
	alpha.EnableSurvivability(SurvivabilityOptions(sc, interASHorizon+sim.Second))
	x.EnableInterASSurvivability(core.InterASSurvivabilityOptions{
		Hello:           25 * sim.Millisecond,
		HoldMisses:      3,
		GracefulRestart: true,
		RestartTime:     900 * sim.Millisecond,
		Horizon:         interASHorizon + sim.Second,
	})

	if shards > 0 {
		if _, err := x.EnableSharding(core.ShardingOptions{Shards: shards, Workers: workers}); err != nil {
			t.Fatalf("EnableSharding(%d): %v", shards, err)
		}
	}

	fa, err := x.FlowBetween("ia-voice", "alpha", "hq", "gamma", "plant", 5060)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := x.FlowBetween("ia-web", "gamma", "plant", "alpha", "hq", 80)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := x.FlowBetween("ia-video", "alpha", "hq", "gamma", "plant", 5004)
	if err != nil {
		t.Fatal(err)
	}
	// Open-loop sources only: that is the class of workload the sharded
	// backend reproduces bit-for-bit against the serial engine (see
	// core/equiv_test.go); closed-loop feedback is exercised elsewhere.
	alpha.RegisterSource(trafgen.CBR(x.Net, fa, 300, 5*sim.Millisecond, 31*sim.Microsecond, interASHorizon))
	gamma.RegisterSource(trafgen.Poisson(x.Net, fb, 600, 150, 149*sim.Microsecond, interASHorizon, x.E.Rand().Fork()))
	alpha.RegisterSource(trafgen.OnOff(x.Net, fc, 900, 2*sim.Millisecond,
		40*sim.Millisecond, 25*sim.Millisecond, 223*sim.Microsecond, interASHorizon, x.E.Rand().Fork()))

	inj := New(alpha, sc)
	inj.InterAS = x
	inj.Schedule()
	return &interASRig{x: x, fl: []*trafgen.Flow{fa, fb, fc}, inj: inj}
}

// fingerprint renders every checkpointed observable across the three
// carriers: StateDigest (every AS's control plane, ledgers, flows and
// journal, and the peering plane with its counters) and the shared packet
// counters.
func (r *interASRig) fingerprint() string {
	// The net section depends on the shard count, so StateDigest leaves the
	// packet counters out.
	return r.x.StateDigest() + fmt.Sprintf("net: injected=%d delivered=%d dropped=%d\n",
		r.x.Net.Injected, r.x.Net.Delivered, r.x.Net.Dropped)
}

// runInterASUninterrupted drives the scenario end to end with no checkpoint.
func runInterASUninterrupted(t testing.TB, shards, workers int) string {
	t.Helper()
	rig := buildInterASRig(t, shards, workers)
	rig.x.Net.RunUntil(interASHorizon + sim.Second)
	if err := rig.x.Net.CheckConservation(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	if len(rig.inj.Checker.Violations) != 0 {
		t.Fatalf("shards=%d invariant violations: %v", shards, rig.inj.Checker.Violations)
	}
	// The run must be a real failover story, not a quiet sim: traffic
	// keeps flowing (on the backup, then back via beta), beta's outage is
	// detected on both touching peerings, and the extranet stays isolated.
	for _, f := range rig.fl {
		if f.Stats.Delivered == 0 {
			t.Fatalf("shards=%d flow %s: nothing delivered", shards, f.Stats.Name)
		}
		if loss := f.Stats.LossRate(); loss > 0.35 {
			t.Fatalf("shards=%d flow %s: loss %.1f%% exceeds the outage budget",
				shards, f.Stats.Name, loss*100)
		}
	}
	st := rig.x.InterASStatsNow()
	if st.PeeringFlaps < 2 || st.Failovers == 0 || st.Reinstalls == 0 {
		t.Fatalf("shards=%d: flaps=%d failovers=%d reinstalls=%d; outage not exercised",
			shards, st.PeeringFlaps, st.Failovers, st.Reinstalls)
	}
	return rig.fingerprint()
}

// runInterASInterrupted drives to the mid-GR instant, snapshots the whole
// multi-carrier simulation, discards it, rebuilds, restores, proves the
// restored state re-encodes byte-identically, and finishes the run.
func runInterASInterrupted(t testing.TB, shards, workers int) string {
	t.Helper()
	const fp = "interas-snap"
	rig1 := buildInterASRig(t, shards, workers)
	rig1.x.Net.RunUntil(interASSnapT)

	// The checkpoint must land in the advertised regime: beta dead, its
	// peerings holding stale state under graceful restart.
	if !rig1.x.ASFailed("beta") {
		t.Fatalf("shards=%d: beta not failed at snapshot instant", shards)
	}
	if dig := rig1.x.SelectionDigest(); !strings.Contains(dig, "state=restarting") {
		t.Fatalf("shards=%d: no peering mid-GR at snapshot instant:\n%s", shards, dig)
	}

	data, err := rig1.x.Snapshot(fp)
	if err != nil {
		t.Fatalf("shards=%d snapshot: %v", shards, err)
	}

	rig2 := buildInterASRig(t, shards, workers)
	if err := rig2.x.Restore(data, fp); err != nil {
		t.Fatalf("shards=%d restore: %v", shards, err)
	}
	data2, err := rig2.x.Snapshot(fp)
	if err != nil {
		t.Fatalf("shards=%d re-snapshot: %v", shards, err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("shards=%d: snapshot(restore(s)) != s (%d vs %d bytes)", shards, len(data), len(data2))
	}

	rig2.x.Net.RunUntil(interASHorizon + sim.Second)
	if err := rig2.x.Net.CheckConservation(); err != nil {
		t.Fatalf("shards=%d post-restore: %v", shards, err)
	}
	if len(rig2.inj.Checker.Violations) != 0 {
		t.Fatalf("shards=%d post-restore invariant violations: %v", shards, rig2.inj.Checker.Violations)
	}
	return rig2.fingerprint()
}

// TestInterASSnapshotBoundary is the inter-AS half of the checkpoint
// contract: a snapshot taken mid-graceful-restart while a whole peer AS is
// down must restore byte-identically (snapshot∘restore is the identity on
// the wire format) and the restored run must finish the failover,
// reinstall, and recovery exactly as the uninterrupted run — serially and
// at 1 and 8 shards of the shared multi-carrier engine.
func TestInterASSnapshotBoundary(t *testing.T) {
	for _, shards := range []int{0, 1, 8} {
		want := runInterASUninterrupted(t, shards, 4)
		got := runInterASInterrupted(t, shards, 4)
		if got != want {
			t.Errorf("shards=%d: restored run diverged; first difference:\n%s",
				shards, firstDiff(want, got))
		}
	}
}

// TestASFailoverEquivalence pins the serial-vs-parallel contract for the
// AS-failover machinery itself: the same three-carrier outage story —
// hello detection, graceful restart, cross-provider re-selection, boundary
// reinstall, recovery — must produce byte-identical digests, ledgers,
// packet counters, flow stats, and journals on the serial engine and at 8
// shards. This is the test `make test-race` names explicitly.
func TestASFailoverEquivalence(t *testing.T) {
	serial := runInterASUninterrupted(t, 0, 0)
	sharded := runInterASUninterrupted(t, 8, 4)
	if serial != sharded {
		t.Errorf("serial vs 8-shard AS failover diverged; first difference:\n%s",
			firstDiff(serial, sharded))
	}
}
