package chaos

import (
	"fmt"
	"sort"

	"mplsvpn/internal/core"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
)

// Runner drives a simulation in segments so checkpoints and crash recovery
// happen between engine runs, never inside them. Scripted ckpt and
// ckill+resume directives plus an optional periodic interval partition
// [0, Horizon] into segments; after each boundary the runner either
// snapshots the live backbone or — for a crash point — throws it away,
// rebuilds the scenario from scratch, restores the newest stored
// checkpoint, and replays forward to the crash instant before continuing.
// Because both the rebuild and the replay are deterministic, a run with any
// number of crash recoveries converges to the same digest, journal, and
// flow statistics as an uninterrupted run.
type Runner struct {
	// Build constructs a fresh, unrun instance of the scenario: backbone
	// built, traffic sources registered, telemetry attached, chaos
	// scheduled. It is called once at start and once more per crash
	// recovery, and must be deterministic (same seed, same construction
	// order).
	Build func() (*core.Backbone, error)

	// Fingerprint identifies the scenario construction. Snapshot embeds it
	// and Restore refuses a checkpoint whose fingerprint differs.
	Fingerprint string

	// Store persists checkpoints with atomic publication and retention.
	// Required when the run contains crash points; optional otherwise
	// (checkpoints are then taken — exercising the serializer — but not
	// kept).
	Store *snapshot.Store

	// Interval adds a periodic auto-checkpoint every Interval of virtual
	// time on top of the scripted points. Zero disables.
	Interval sim.Time

	// Horizon is the virtual end time of the run.
	Horizon sim.Time

	// Checkpoints and CrashResumes are the scripted boundary times,
	// usually copied from Scenario.Checkpoints and Scenario.CrashResumes.
	// A crash point needs at least one earlier checkpoint to recover from.
	Checkpoints  []sim.Time
	CrashResumes []sim.Time

	// B is the live backbone. It changes identity across crash recoveries;
	// read it after Run for final-state inspection.
	B *core.Backbone

	// Saved and Resumes count checkpoints written and crash recoveries
	// performed; Replayed totals the virtual time re-simulated during
	// recoveries (crash instant minus recovered checkpoint).
	Saved    int
	Resumes  int
	Replayed sim.Time
}

// Run executes the whole horizon, honoring every boundary point.
func (r *Runner) Run() error {
	b, err := r.Build()
	if err != nil {
		return err
	}
	r.B = b

	type point struct {
		t    sim.Time
		kill bool
	}
	var pts []point
	seen := make(map[sim.Time]bool, len(r.Checkpoints))
	addCkpt := func(t sim.Time) {
		if !seen[t] {
			seen[t] = true
			pts = append(pts, point{t: t})
		}
	}
	for _, t := range r.Checkpoints {
		addCkpt(t)
	}
	if r.Interval > 0 {
		for t := r.Interval; t < r.Horizon; t += r.Interval {
			addCkpt(t)
		}
	}
	for _, t := range r.CrashResumes {
		pts = append(pts, point{t: t, kill: true})
	}
	// Checkpoint before crash at the same instant, so "ckpt at=4s" +
	// "ckill+resume at=4s" recovers the state it just saved.
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].t != pts[j].t {
			return pts[i].t < pts[j].t
		}
		return !pts[i].kill && pts[j].kill
	})

	for _, p := range pts {
		if p.t > r.Horizon {
			break
		}
		r.B.E.RunUntil(p.t)
		if p.kill {
			err = r.recover(p.t)
		} else {
			err = r.checkpoint(p.t)
		}
		if err != nil {
			return err
		}
	}
	r.B.E.RunUntil(r.Horizon)
	return nil
}

// checkpoint snapshots the live backbone and, when a store is configured,
// publishes it under the current virtual time.
func (r *Runner) checkpoint(t sim.Time) error {
	data, err := r.B.Snapshot(r.Fingerprint)
	if err != nil {
		return fmt.Errorf("chaos: checkpoint at %v: %w", t, err)
	}
	if r.Store != nil {
		if _, err := r.Store.Save(int64(t), data); err != nil {
			return fmt.Errorf("chaos: checkpoint at %v: %w", t, err)
		}
	}
	r.Saved++
	return nil
}

// recover models a process crash at virtual time t: the live backbone is
// discarded wholesale, the scenario is rebuilt, the newest stored
// checkpoint restored onto it, and the gap replayed.
func (r *Runner) recover(t sim.Time) error {
	if r.Store == nil {
		return fmt.Errorf("chaos: ckill+resume at %v without a checkpoint store", t)
	}
	ct, data, err := r.Store.Latest()
	if err != nil {
		return fmt.Errorf("chaos: recovery at %v: %w", t, err)
	}
	if sim.Time(ct) > t {
		return fmt.Errorf("chaos: recovery at %v: newest checkpoint %v is from the future", t, sim.Time(ct))
	}
	b, err := r.Build()
	if err != nil {
		return fmt.Errorf("chaos: recovery rebuild at %v: %w", t, err)
	}
	if err := b.Restore(data, r.Fingerprint); err != nil {
		return fmt.Errorf("chaos: restore at %v: %w", t, err)
	}
	r.B = b
	r.B.E.RunUntil(t)
	r.Resumes++
	r.Replayed += t - sim.Time(ct)
	return nil
}
