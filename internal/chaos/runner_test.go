package chaos

import (
	"errors"
	"strings"
	"testing"

	"mplsvpn/internal/core"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
)

// TestRunnerCrashRecovery drives the acceptance scenario through the
// checkpoint Runner: periodic auto-checkpoints plus the scripted ckpt
// directives, then the scripted ckill+resume — a simulated process crash
// recovered from the newest retained checkpoint — and requires the final
// fingerprint byte-identical to the uninterrupted run.
func TestRunnerCrashRecovery(t *testing.T) {
	want := runUninterrupted(t, 0, 0)

	sc, err := ParseScenario(strings.NewReader(snapScenario), "snap")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Checkpoints) != 2 || len(sc.CrashResumes) != 1 {
		t.Fatalf("scenario parsed %d ckpt and %d ckill+resume directives",
			len(sc.Checkpoints), len(sc.CrashResumes))
	}

	var rig *snapRig
	store := &snapshot.Store{Dir: t.TempDir(), Keep: 3}
	r := &Runner{
		Build: func() (*core.Backbone, error) {
			rig = buildSnapRig(t, 0, 0)
			return rig.b, nil
		},
		Fingerprint:  "runner-crash",
		Store:        store,
		Interval:     sim.Second,
		Horizon:      snapHorizon + sim.Second,
		Checkpoints:  sc.Checkpoints,
		CrashResumes: sc.CrashResumes,
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}

	got := rig.fingerprint()
	if got != want {
		t.Errorf("crash-recovered run diverged; first difference:\n%s", firstDiff(want, got))
	}
	// Boundaries: interval points 1s..7s plus scripted 2s (deduplicated)
	// and 3.5s — eight checkpoints in all.
	if r.Saved != 8 {
		t.Errorf("Saved = %d, want 8", r.Saved)
	}
	if r.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1", r.Resumes)
	}
	// The crash at 4.6s recovers the 4s checkpoint: 600ms replayed.
	if r.Replayed != 600*sim.Millisecond {
		t.Errorf("Replayed = %v, want 600ms", r.Replayed)
	}
	ts, err := store.Times()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Errorf("retention kept %d checkpoints, want 3 (%v)", len(ts), ts)
	}
}

// TestRunnerRecoverySkipsTornCheckpoint crashes right after corrupting the
// newest published checkpoint: recovery must fall back to the next-newest
// consistent one and still converge to the uninterrupted fingerprint.
func TestRunnerRecoverySkipsTornCheckpoint(t *testing.T) {
	want := runUninterrupted(t, 0, 0)

	var rig *snapRig
	store := &snapshot.Store{Dir: t.TempDir()}
	r := &Runner{
		Build: func() (*core.Backbone, error) {
			rig = buildSnapRig(t, 0, 0)
			return rig.b, nil
		},
		Fingerprint: "runner-torn",
		Store:       store,
		Interval:    2 * sim.Second,
		Horizon:     snapHorizon + sim.Second,
	}

	// Drive the segments by hand so the corruption lands mid-run: run to
	// 4s taking the 2s and 4s checkpoints, tear the 4s one, then recover.
	rig = buildSnapRig(t, 0, 0)
	r.B = rig.b
	for _, ct := range []sim.Time{2 * sim.Second, 4 * sim.Second} {
		rig.b.Net.RunUntil(ct)
		data, err := rig.b.Snapshot(r.Fingerprint)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Save(int64(ct), data); err != nil {
			t.Fatal(err)
		}
	}
	tearNewest(t, store)

	if err := r.recover(4500 * sim.Millisecond); err != nil {
		t.Fatalf("recovery over torn checkpoint: %v", err)
	}
	// recover() rebuilt via r.Build, so the closure refreshed rig; run out
	// the horizon on the recovered instance.
	r.B.Net.RunUntil(snapHorizon + sim.Second)
	got := rig.fingerprint()
	if got != want {
		t.Errorf("recovery from older checkpoint diverged; first difference:\n%s",
			firstDiff(want, got))
	}
	// 2.5 virtual seconds replayed: the torn 4s checkpoint was skipped in
	// favor of the 2s one.
	if r.Replayed != 2500*sim.Millisecond {
		t.Errorf("Replayed = %v, want 2.5s (torn checkpoint not skipped?)", r.Replayed)
	}
}

// tearNewest truncates the newest checkpoint file in the store, simulating
// a crash that beat the write (pre-rename torn state published by some
// other failure).
func tearNewest(t *testing.T, store *snapshot.Store) {
	t.Helper()
	ts, err := store.Times()
	if err != nil || len(ts) == 0 {
		t.Fatalf("no checkpoints to tear: %v", err)
	}
	newest := ts[len(ts)-1]
	data, err := store.Load(newest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(newest, data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(newest); err == nil {
		t.Fatal("torn checkpoint still decodes")
	}
}

// TestBisectLocalizesChaosEvent is the bisector demo: with a store of
// periodic checkpoints, localize the first route suppression — a monotone
// predicate over virtual time — via O(log n) partial replays, each probe
// restoring the nearest checkpoint and replaying only the gap.
func TestBisectLocalizesChaosEvent(t *testing.T) {
	const fp = "bisect"
	store := &snapshot.Store{Dir: t.TempDir()} // keep everything
	var rig *snapRig
	r := &Runner{
		Build: func() (*core.Backbone, error) {
			rig = buildSnapRig(t, 0, 0)
			return rig.b, nil
		},
		Fingerprint: fp,
		Store:       store,
		Interval:    500 * sim.Millisecond,
		Horizon:     snapHorizon,
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if rig.b.BGP.RouteSuppressions == 0 {
		t.Fatal("scenario produced no route suppressions to localize")
	}

	times, err := store.Times()
	if err != nil {
		t.Fatal(err)
	}
	replays := 0
	probe := func(tt int64) (bool, error) {
		_, data, err := store.LatestAtOrBefore(tt)
		if err != nil {
			return false, err
		}
		prig := buildSnapRig(t, 0, 0)
		if err := prig.b.Restore(data, fp); err != nil {
			return false, err
		}
		prig.b.Net.RunUntil(sim.Time(tt))
		replays++
		return prig.b.BGP.RouteSuppressions > 0, nil
	}
	w, probes, err := snapshot.Bisect(times, probe)
	if err != nil {
		t.Fatal(err)
	}
	// The second GR expiry re-announce lands just after PE1's 2.9s
	// restart; with 500ms checkpoints the window must be (2.5s, 3s].
	if w.Lo != int64(2500*sim.Millisecond) || w.Hi != int64(3*sim.Second) {
		t.Errorf("window = (%v, %v], want (2.5s, 3s]", sim.Time(w.Lo), sim.Time(w.Hi))
	}
	// O(log n): 1 validation probe + ceil(log2(len(times))) bisection
	// probes. 13 checkpoints -> at most 1+4 = 5, far below the 13 a
	// linear scan would need.
	maxProbes := 1
	for n := len(times); n > 1; n = (n + 1) / 2 {
		maxProbes++
	}
	if probes > maxProbes {
		t.Errorf("bisection spent %d probes over %d times, O(log n) bound is %d",
			probes, len(times), maxProbes)
	}
	if replays != probes {
		t.Errorf("replays = %d, probes = %d", replays, probes)
	}

	// A predicate that never fires inside the horizon reports cleanly.
	_, _, err = snapshot.Bisect(times, func(int64) (bool, error) { return false, nil })
	if !errors.Is(err, snapshot.ErrNotViolated) {
		t.Errorf("clean run bisection = %v, want ErrNotViolated", err)
	}
}
