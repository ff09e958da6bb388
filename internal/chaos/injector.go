package chaos

import (
	"fmt"

	"mplsvpn/internal/bgp"
	"mplsvpn/internal/core"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
)

// ReconcilerTarget is what rkill/rrestart directives act on: the intent
// reconciler (declared as an interface here to avoid importing the intent
// package, which imports core just as chaos does).
type ReconcilerTarget interface {
	Kill() error
	Restart() error
}

// MultiASTarget is what asfail/asrestore directives act on: a
// multi-provider simulation that can crash and restore a whole member AS.
// *core.InterAS implements it.
type MultiASTarget interface {
	FailAS(name string) error
	RestoreAS(name string, detect sim.Time) error
}

// Injector schedules a scenario's faults on a backbone's engine and runs
// the invariant checker after every one. All jitter comes from a stream
// forked off the engine's seeded generator at construction, drawn in
// script order at schedule time — so two same-seed runs inject the exact
// same virtual-time sequence.
type Injector struct {
	B *core.Backbone
	S *Scenario

	// Checker verifies isolation, loop-freedom, and byte conservation
	// after every injected operation.
	Checker *Checker

	// Reconciler receives rkill/rrestart operations; when nil those
	// directives are rejected (counted, not fatal).
	Reconciler ReconcilerTarget

	// InterAS receives asfail/asrestore operations; when nil those
	// directives are rejected (counted, not fatal).
	InterAS MultiASTarget

	// Applied and Rejected count fired operations by outcome (an operation
	// is rejected when its precondition no longer holds, e.g. failing an
	// already-failed link mid-flap-storm).
	Applied  int
	Rejected int

	rng *sim.Rand
}

// New prepares an injector; call Schedule before running the engine.
func New(b *core.Backbone, s *Scenario) *Injector {
	return &Injector{B: b, S: s, Checker: NewChecker(b), rng: b.E.Rand().Fork()}
}

// timedOp is one expanded, concrete operation, booked with Backbone.At: a
// checkpoint with it pending re-arms it by registry index on the rebuild,
// whose Schedule books the same operations in the same order.
type timedOp struct {
	inj    *Injector
	at     sim.Time
	op     Op
	a, z   string
	detect sim.Time
}

// Schedule applies the control-plane loss model and books every operation
// on the engine. Flap trains are expanded here, with per-transition jitter
// drawn in file order, so the schedule is fixed before the run starts.
func (inj *Injector) Schedule() {
	if inj.S.CtrlLoss > 0 {
		inj.B.SetControlPlaneLoss(inj.S.CtrlLoss, inj.S.CtrlExtra)
	}
	if inj.S.Surv != nil || inj.S.Damping != nil {
		// EnableSurvivability is idempotent: a caller that already enabled
		// the layer with a tighter horizon wins.
		inj.B.EnableSurvivability(SurvivabilityOptions(inj.S, inj.S.Duration()+2*sim.Second))
	}
	for _, ev := range inj.S.Events {
		ops := inj.expand(ev)
		for i := range ops {
			inj.B.At(ops[i].at, ops[i].apply)
		}
	}
}

// expand turns one scripted event into its concrete operations.
func (inj *Injector) expand(ev Event) []timedOp {
	if ev.Op != OpFlap {
		return []timedOp{{inj: inj, at: ev.At, op: ev.Op, a: ev.A, z: ev.Z, detect: ev.Detect}}
	}
	out := make([]timedOp, 0, 2*ev.Count)
	t := ev.At
	for i := 0; i < ev.Count; i++ {
		out = append(out, timedOp{inj: inj, at: t, op: OpFail, a: ev.A, z: ev.Z, detect: ev.Detect})
		t += ev.Down + inj.jitter(ev.Jitter)
		out = append(out, timedOp{inj: inj, at: t, op: OpRestore, a: ev.A, z: ev.Z, detect: ev.Detect})
		t += ev.Up + inj.jitter(ev.Jitter)
	}
	return out
}

func (inj *Injector) jitter(j sim.Time) sim.Time {
	if j <= 0 {
		return 0
	}
	return sim.Time(inj.rng.Float64() * float64(j))
}

// apply applies the operation, journals it, and checks the invariants.
func (op *timedOp) apply() {
	inj := op.inj
	var err error
	switch op.op {
	case OpFail:
		err = inj.B.FailLink(op.a, op.z, op.detect)
	case OpRestore:
		err = inj.B.RestoreLink(op.a, op.z, op.detect)
	case OpCrash:
		err = inj.B.CrashNode(op.a, op.detect)
	case OpRestart:
		err = inj.B.RestartNode(op.a, op.detect)
	case OpCut:
		err = inj.B.CutSiteAttachment(op.a)
	case OpUncut:
		err = inj.B.RestoreSiteAttachment(op.a)
	case OpRKill:
		if inj.Reconciler == nil {
			err = fmt.Errorf("chaos: no reconciler attached")
		} else {
			err = inj.Reconciler.Kill()
		}
	case OpRRestart:
		if inj.Reconciler == nil {
			err = fmt.Errorf("chaos: no reconciler attached")
		} else {
			err = inj.Reconciler.Restart()
		}
	case OpASFail:
		if inj.InterAS == nil {
			err = fmt.Errorf("chaos: no inter-AS target attached")
		} else {
			err = inj.InterAS.FailAS(op.a)
		}
	case OpASRestore:
		if inj.InterAS == nil {
			err = fmt.Errorf("chaos: no inter-AS target attached")
		} else {
			err = inj.InterAS.RestoreAS(op.a, op.detect)
		}
	default:
		err = fmt.Errorf("chaos: unknown op %v", op.op)
	}
	detail := op.a
	if op.z != "" {
		detail += "<->" + op.z
	}
	if err != nil {
		inj.Rejected++
		detail += " (rejected)"
	} else {
		inj.Applied++
	}
	if tel := inj.B.Telemetry(); tel != nil {
		tel.Journal.Record(inj.B.E.Now(), telemetry.EventChaos, "chaos:"+op.op.String(), detail)
	}
	inj.Checker.Check()
}

// SurvivabilityOptions converts a scenario's survivability and damping
// directives into core options, bounding hello scans by horizon. A damping
// directive without an explicit reuse threshold defaults to suppress/2.
func SurvivabilityOptions(s *Scenario, horizon sim.Time) core.SurvivabilityOptions {
	opt := core.SurvivabilityOptions{Horizon: horizon}
	if s.Surv != nil {
		opt.Hello = s.Surv.Hello
		opt.HoldMisses = s.Surv.Hold
		opt.GracefulRestart = s.Surv.GR
		opt.RestartTime = s.Surv.Restart
	}
	if s.Damping != nil {
		reuse := s.Damping.Reuse
		if reuse == 0 {
			reuse = s.Damping.Suppress / 2
		}
		opt.Damping = bgp.DampingConfig{
			Penalty:    s.Damping.Penalty,
			Suppress:   s.Damping.Suppress,
			Reuse:      reuse,
			HalfLife:   s.Damping.HalfLife,
			MaxPenalty: s.Damping.Max,
		}
	}
	return opt
}

// Report summarizes the run for operators.
func (inj *Injector) Report() string {
	return fmt.Sprintf("chaos %q: %d applied, %d rejected; %d invariant checks, %d violations",
		inj.S.Name, inj.Applied, inj.Rejected, inj.Checker.Checks, len(inj.Checker.Violations))
}
