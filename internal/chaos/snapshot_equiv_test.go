package chaos

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"mplsvpn/internal/core"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/trafgen"
)

// snapScenario is the checkpoint acceptance scenario: the full
// survivability surface (graceful restart, route-flap damping, lossy
// control plane) plus enough concurrent failure to leave non-trivial state
// pending at the snapshot instant — a crashed node mid-GR, damping
// penalties decaying, TE intents in retry backoff, and a flap train whose
// suppressed route must reuse after the restore point.
const snapScenario = `
survivability hello=20ms hold=3 restart=900ms gr=on
damping penalty=1000 suppress=1600 reuse=1200 halflife=3s
ctrlloss 0.25 extra=150ms
crash PE1 at=500ms detect=20ms
restart PE1 at=1600ms detect=20ms
crash PE1 at=1900ms detect=20ms
restart PE1 at=2900ms detect=20ms
flap P1 PE2 at=2s count=4 down=70ms up=100ms detect=10ms jitter=25ms
crash P2 at=4s detect=50ms
restart P2 at=4400ms detect=50ms
fail PE1 P1 at=5200ms detect=20ms
restore PE1 P1 at=5600ms detect=20ms
ckpt at=2s
ckpt at=3500ms
ckill+resume at=4600ms
`

// snapT is the snapshot instant: P2 is crashed (GR deadline armed), the
// flap train's damping penalties are still decaying, and rerouted TE
// intents hold retry timers.
const snapT = 4200 * sim.Millisecond

const snapHorizon = 7 * sim.Second

// snapRig bundles everything a fingerprint needs to read back.
type snapRig struct {
	b   *core.Backbone
	inj *Injector
}

// buildSnapRig constructs one fresh, unrun instance of the scenario. It is
// the Build function of the checkpoint protocol: called identically for
// the original run, the restore target, and every crash recovery.
func buildSnapRig(t testing.TB, shards, workers int) *snapRig {
	t.Helper()
	sc, err := ParseScenario(strings.NewReader(snapScenario), "snap")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := chaosBackboneBare(23, snapHorizon)
	surv := *sc.Surv
	surv.Horizon = snapHorizon
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
	fc, err := b.FlowBetween("fc", "b1", "b2", 5004)
	if err != nil {
		t.Fatal(err)
	}
	// One source per pacing model, all registered so their pending reposts
	// and private random streams ride through checkpoints.
	b.RegisterSource(trafgen.CBR(b.Net, fa, 500, 5*sim.Millisecond, 29*sim.Microsecond, snapHorizon))
	b.RegisterSource(trafgen.Poisson(b.Net, fb, 800, 180, 137*sim.Microsecond, snapHorizon, b.E.Rand().Fork()))
	b.RegisterSource(trafgen.OnOff(b.Net, fc, 700, 2*sim.Millisecond,
		40*sim.Millisecond, 25*sim.Millisecond, 211*sim.Microsecond, snapHorizon, b.E.Rand().Fork()))

	inj := New(b, sc)
	inj.Schedule()
	return &snapRig{b: b, inj: inj}
}

// fingerprint renders the checkpointed observables: StateDigest (the
// control plane, session and BGP ledgers, flows, telemetry and journal)
// and the packet counters. Injector-local counters are deliberately absent
// — they live in the harness, not the simulation, so a restored run
// recounts only its own segment.
func (r *snapRig) fingerprint() string {
	// The net section depends on the shard count, so StateDigest leaves the
	// packet counters out.
	return r.b.StateDigest() + fmt.Sprintf("net: injected=%d delivered=%d dropped=%d\n",
		r.b.Net.Injected, r.b.Net.Delivered, r.b.Net.Dropped)
}

// runUninterrupted drives the scenario end to end with no checkpoint.
func runUninterrupted(t testing.TB, shards, workers int) string {
	t.Helper()
	rig := buildSnapRig(t, shards, workers)
	rig.b.Net.RunUntil(snapHorizon + sim.Second)
	if err := rig.b.Net.CheckConservation(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	if len(rig.inj.Checker.Violations) != 0 {
		t.Fatalf("shards=%d invariant violations: %v", shards, rig.inj.Checker.Violations)
	}
	return rig.fingerprint()
}

// runInterrupted drives to snapT, snapshots, discards the live simulation,
// rebuilds, restores, and finishes — the restore-equivalence contract.
func runInterrupted(t testing.TB, shards, workers int) string {
	t.Helper()
	const fp = "snap-equiv"
	rig1 := buildSnapRig(t, shards, workers)
	rig1.b.Net.RunUntil(snapT)
	data, err := rig1.b.Snapshot(fp)
	if err != nil {
		t.Fatalf("shards=%d snapshot: %v", shards, err)
	}

	rig2 := buildSnapRig(t, shards, workers)
	if err := rig2.b.Restore(data, fp); err != nil {
		t.Fatalf("shards=%d restore: %v", shards, err)
	}

	// A snapshot is a pure function of simulation state: re-snapshotting
	// the freshly restored run must reproduce the original bytes.
	data2, err := rig2.b.Snapshot(fp)
	if err != nil {
		t.Fatalf("shards=%d re-snapshot: %v", shards, err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("shards=%d: snapshot(restore(s)) != s (%d vs %d bytes)", shards, len(data), len(data2))
	}

	rig2.b.Net.RunUntil(snapHorizon + sim.Second)
	if err := rig2.b.Net.CheckConservation(); err != nil {
		t.Fatalf("shards=%d post-restore: %v", shards, err)
	}
	if len(rig2.inj.Checker.Violations) != 0 {
		t.Fatalf("shards=%d post-restore invariant violations: %v", shards, rig2.inj.Checker.Violations)
	}
	return rig2.fingerprint()
}

// TestSnapshotRestoreEquivalence is the tentpole contract: run-to-T +
// snapshot + rebuild + restore + run-to-end must be byte-identical to the
// uninterrupted run — digest, ledgers, packet counters, flow stats, and
// journal — on the serial engine and at 1 and 8 shards, with the chaos
// script active across the snapshot boundary.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	for _, shards := range []int{0, 1, 8} {
		want := runUninterrupted(t, shards, 4)
		got := runInterrupted(t, shards, 4)
		if got != want {
			t.Errorf("shards=%d: restored run diverged; first difference:\n%s",
				shards, firstDiff(want, got))
		}
	}
}

// TestSnapshotCarriesRetryAndDampedState is the satellite contract: a TE
// intent in retry backoff and a damping-suppressed route must both survive
// the snapshot and fire (retry) / reuse (damped route) at the same virtual
// times as the uninterrupted run. The journal timestamps past snapT are the
// proof — the journal is in the StateDigest both runs' fingerprints hold.
func TestSnapshotCarriesRetryAndDampedState(t *testing.T) {
	rig := buildSnapRig(t, 0, 0)
	rig.b.Net.RunUntil(snapHorizon + sim.Second)
	want := rig.fingerprint()
	journal := rig.b.Telemetry().Journal.Render()
	afterT := journalAfter(journal, snapT)
	if !strings.Contains(journal, "te_retry") {
		t.Fatalf("scenario exercises no TE retries:\n%s", journal)
	}
	if !strings.Contains(journal, "route_damped") {
		t.Fatalf("scenario suppresses no routes:\n%s", journal)
	}
	if !strings.Contains(afterT, "route_reused") {
		t.Fatalf("no damped route reuses after the snapshot instant:\n%s", afterT)
	}
	got := runInterrupted(t, 0, 0)
	if got != want {
		t.Errorf("retry/damping state diverged across restore; first difference:\n%s",
			firstDiff(want, got))
	}
}

// journalAfter returns the rendered journal's lines with timestamps
// strictly after t (journal lines render as "#seq  time  kind subject").
func journalAfter(journal string, t sim.Time) string {
	var sb strings.Builder
	for _, line := range strings.Split(journal, "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			continue
		}
		if sim.Time(d) > t {
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestRestoreOntoARunBuild: a checkpoint restored onto a build that has
// already run, to any instant before the cut or past it, must load the state
// it loads onto a fresh build: it re-snapshots to the same bytes, and the run
// from there ends with the same fingerprint. The snap, clustered-reflector
// and inter-AS rigs are each restored onto builds run to every 100 ms of
// their horizon. A run-ahead build is where state a load leaves alone shows:
// a telemetry series the checkpoint lacks, the event wheel's origin, a
// graph observer acting on the rebuild's ports.
func TestRestoreOntoARunBuild(t *testing.T) {
	// A rig is its scenario built fresh: run to an instant, checkpoint,
	// restore and fingerprint.
	type rig struct {
		run         func(sim.Time)
		snapshot    func() ([]byte, error)
		restore     func([]byte) error
		fingerprint func() string
	}
	rigs := []struct {
		name         string
		cut, horizon sim.Time
		build        func() rig
	}{
		{"snap", snapT, snapHorizon, func() rig {
			r := buildSnapRig(t, 0, 0)
			return rig{r.b.Net.RunUntil, func() ([]byte, error) { return r.b.Snapshot("snap-equiv") },
				func(d []byte) error { return r.b.Restore(d, "snap-equiv") }, r.fingerprint}
		}},
		{"clustered-reflector", reflSnapT, reflHorizon, func() rig {
			r := buildReflRig(t, 0, 0)
			return rig{r.b.Net.RunUntil, func() ([]byte, error) { return r.b.Snapshot("refl-snap") },
				func(d []byte) error { return r.b.Restore(d, "refl-snap") }, r.fingerprint}
		}},
		{"inter-AS", interASSnapT, interASHorizon, func() rig {
			r := buildInterASRig(t, 0, 0)
			return rig{r.x.Net.RunUntil, func() ([]byte, error) { return r.x.Snapshot("interas-snap") },
				func(d []byte) error { return r.x.Restore(d, "interas-snap") }, r.fingerprint}
		}},
	}
	for _, rc := range rigs {
		r := rc.build()
		r.run(rc.cut)
		data, err := r.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		// resume restores the checkpoint onto a build run to ranTo and
		// returns its re-snapshot and the fingerprint it ends with.
		resume := func(ranTo sim.Time) ([]byte, string) {
			r := rc.build()
			r.run(ranTo)
			if err := r.restore(data); err != nil {
				t.Fatalf("%s rig: restore onto a build run to %v: %v", rc.name, ranTo, err)
			}
			again, err := r.snapshot()
			if err != nil {
				t.Fatal(err)
			}
			r.run(rc.horizon + sim.Second)
			return again, r.fingerprint()
		}
		wantBytes, wantEnd := resume(0)
		differ := 0
		for ranTo := 100 * sim.Millisecond; ranTo <= rc.horizon; ranTo += 100 * sim.Millisecond {
			gotBytes, gotEnd := resume(ranTo)
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Errorf("%s rig restored onto a build run to %v: re-snapshot differs from a restore onto a fresh build (%d vs %d bytes)",
					rc.name, ranTo, len(gotBytes), len(wantBytes))
			}
			if gotEnd == wantEnd {
				continue
			}
			if differ++; differ == 1 {
				got, want := strings.Split(gotEnd, "\n"), strings.Split(wantEnd, "\n")
				i := 0
				for i < len(got)-1 && i < len(want)-1 && got[i] == want[i] {
					i++
				}
				t.Errorf("%s rig restored onto a build run to %v ends differently from a restore onto a fresh build:\n  %s\n  against %s",
					rc.name, ranTo, got[i], want[i])
			}
		}
		if differ > 1 {
			t.Errorf("%s rig: %d run-ahead instants end differently in all", rc.name, differ)
		}
	}
}
