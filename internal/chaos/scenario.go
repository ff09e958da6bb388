// Package chaos is the deterministic fault-injection plane: scripted
// scenarios of link flaps, node crash/restart, and PE-CE attachment cuts
// are scheduled on the simulation engine, every injected event is followed
// by an invariant check (no cross-VPN leakage, no forwarding loops, byte
// conservation on every port), and all randomness — flap jitter, control
// plane loss — is drawn from streams forked off the engine's seed, so the
// same seed and script always produce byte-identical runs.
//
// The scenario DSL is line-based (lexical rules, value kinds and errors:
// internal/dsl):
//
//	ctrlloss 0.3 extra=300ms
//	survivability hello=25ms hold=3 restart=800ms gr=on
//	damping penalty=1000 suppress=2000 reuse=750 halflife=15s
//	fail PE1 P1 at=1s detect=50ms
//	restore PE1 P1 at=2s detect=50ms
//	flap P1 P2 at=3s count=5 down=100ms up=200ms detect=10ms jitter=20ms
//	crash P2 at=5s detect=100ms
//	restart P2 at=6s detect=100ms
//	cut hq at=7s
//	uncut hq at=8s
//	rkill at=9s
//	rrestart at=10s
//	asfail beta at=9s
//	asrestore beta at=12s detect=100ms
//	ckpt at=4s
//	ckill+resume at=11s
//
// asfail/asrestore target an entire peer AS in a multi-provider scenario
// (when an inter-AS target is attached to the injector): every provider
// node of the named AS crashes in one instant with no notification, and the
// surviving providers' peering hello machinery must detect and fail over.
//
// rkill/rrestart target the intent reconciler (when one is attached to the
// injector): a kill mid-commit must leave no half-provisioned state, and a
// restart must converge to the same digest as an uninterrupted run.
//
// ckpt and ckill+resume are harness directives, not injected faults: they
// never become engine events (so they leave no trace in the journal or the
// event heaps). A Runner drives the run in segments, taking a checkpoint at
// each ckpt time; at a ckill+resume time it discards the live simulation
// entirely — modeling a process crash — rebuilds the scenario, restores the
// newest stored checkpoint, and replays forward to the kill point before
// continuing.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"mplsvpn/internal/dsl"
	"mplsvpn/internal/sim"
)

// Op is one fault-injection operation kind.
type Op int

// Operations.
const (
	OpFail Op = iota
	OpRestore
	OpFlap
	OpCrash
	OpRestart
	OpCut
	OpUncut
	OpRKill
	OpRRestart
	// OpASFail/OpASRestore crash and restore an entire peer AS at once
	// (multi-provider scenarios only): every provider node and session of
	// the named AS goes down in one instant.
	OpASFail
	OpASRestore
)

// opNames are the directive names of the operations, in Op order.
var opNames = [...]string{
	OpFail: "fail", OpRestore: "restore", OpFlap: "flap", OpCrash: "crash",
	OpRestart: "restart", OpCut: "cut", OpUncut: "uncut", OpRKill: "rkill",
	OpRRestart: "rrestart", OpASFail: "asfail", OpASRestore: "asrestore",
}

func (o Op) String() string {
	if o >= 0 && int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// DefaultDetect is the failure detection delay when a directive gives none.
const DefaultDetect = 10 * sim.Millisecond

// Event is one scripted fault. Link operations use A and Z; node and site
// operations use A alone. A flap expands into Count fail/restore pairs
// spaced Down/Up apart, each transition jittered by up to Jitter.
type Event struct {
	At     sim.Time
	Op     Op
	A, Z   string
	Detect sim.Time

	Count    int
	Down, Up sim.Time
	Jitter   sim.Time
}

// SurvConfig is the parsed survivability directive: hello/hold session
// detection and the graceful-restart policy.
type SurvConfig struct {
	Hello   sim.Time
	Hold    int
	Restart sim.Time
	GR      bool
}

// DampConfig is the parsed route-flap damping directive.
type DampConfig struct {
	Penalty  float64
	Suppress float64
	Reuse    float64
	Max      float64
	HalfLife sim.Time
}

// Scenario is a parsed fault script.
type Scenario struct {
	Name   string
	Events []Event

	// Control-plane loss model applied for the whole run.
	CtrlLoss  float64
	CtrlExtra sim.Time

	// Survivability layer configuration (nil = directive absent).
	Surv    *SurvConfig
	Damping *DampConfig

	// Harness directives: checkpoint times and crash-kill/resume times.
	// These are driven by a Runner between engine segments, never injected
	// as engine events.
	Checkpoints  []sim.Time
	CrashResumes []sim.Time
}

// EventCount returns the number of individual fault operations the
// scenario will inject, with flap trains expanded.
func (s *Scenario) EventCount() int {
	n := 0
	for _, ev := range s.Events {
		if ev.Op == OpFlap {
			n += 2 * ev.Count
		} else {
			n++
		}
	}
	return n
}

// Duration returns the virtual time of the last scheduled operation
// (jitter excluded — add slack when choosing a run horizon).
func (s *Scenario) Duration() sim.Time {
	var end sim.Time
	for _, ev := range s.Events {
		t := ev.At
		if ev.Op == OpFlap {
			t += sim.Time(ev.Count) * (ev.Down + ev.Up)
		}
		if t > end {
			end = t
		}
	}
	return end
}

// ParseScenario reads the fault script DSL. name labels errors and the
// parsed scenario. Every error is a *dsl.Error at the offending line.
func ParseScenario(r io.Reader, name string) (*Scenario, error) {
	sc := &Scenario{Name: name}
	if _, err := dsl.Scan(r, name, sc.directive); err != nil {
		return nil, err
	}
	return sc, nil
}

// directive parses one line into sc.
func (sc *Scenario) directive(ln *dsl.Line) error {
	f := ln.Fields
	// Every fault takes at= and most detect=; -1 marks at= absent, since
	// the duration check refuses negatives.
	ev := Event{At: -1, Op: Op(slices.Index(opNames[:], f[0])), Detect: DefaultDetect}
	timing := dsl.Options{"at": dsl.Set(&ev.At, dsl.Duration), "detect": dsl.Set(&ev.Detect, dsl.Duration)}
	needAt := func(opts []string) error {
		if err := timing.Apply(f[0], opts); err != nil {
			return err
		}
		if ev.At < 0 {
			return fmt.Errorf("%s needs at=<t>", f[0])
		}
		return nil
	}
	switch f[0] {
	case "ctrlloss":
		if len(f) < 2 || len(f) > 3 {
			return errors.New("ctrlloss <prob> [extra=<dur>]")
		}
		p, err := dsl.Float("probability", f[1], 0, 1)
		if err != nil {
			return err
		}
		sc.CtrlLoss, sc.CtrlExtra = p, 100*sim.Millisecond
		return dsl.Options{"extra": dsl.Set(&sc.CtrlExtra, dsl.Duration)}.Apply(f[0], f[2:])
	case "survivability":
		if sc.Surv != nil {
			return errors.New("duplicate survivability directive")
		}
		cfg := &SurvConfig{GR: true}
		err := dsl.Options{
			"hello":   dsl.Set(&cfg.Hello, dsl.PositiveDuration),
			"restart": dsl.Set(&cfg.Restart, dsl.PositiveDuration),
			"hold":    dsl.SetInt(&cfg.Hold, 1, 100),
			"gr": func(_, v string) error {
				if v != "on" && v != "off" {
					return fmt.Errorf("gr must be on or off, not %q", v)
				}
				cfg.GR = v == "on"
				return nil
			},
		}.Apply(f[0], f[1:])
		sc.Surv = cfg
		return err
	case "damping":
		if sc.Damping != nil {
			return errors.New("duplicate damping directive")
		}
		cfg := &DampConfig{}
		if err := (dsl.Options{
			"penalty":  dsl.SetFloat(&cfg.Penalty, 0, 1e9),
			"suppress": dsl.SetFloat(&cfg.Suppress, 0, 1e9),
			"reuse":    dsl.SetFloat(&cfg.Reuse, 0, 1e9),
			"max":      dsl.SetFloat(&cfg.Max, 0, 1e9),
			"halflife": dsl.Set(&cfg.HalfLife, dsl.PositiveDuration),
		}.Apply(f[0], f[1:])); err != nil {
			return err
		}
		if cfg.Penalty <= 0 || cfg.Suppress <= 0 || cfg.HalfLife <= 0 {
			return errors.New("damping needs penalty=, suppress=, and halflife=")
		}
		if cfg.Reuse > cfg.Suppress {
			return fmt.Errorf("damping reuse=%g above suppress=%g", cfg.Reuse, cfg.Suppress)
		}
		if cfg.Max > 0 && cfg.Max < cfg.Suppress {
			return fmt.Errorf("damping max=%g below suppress=%g", cfg.Max, cfg.Suppress)
		}
		sc.Damping = cfg
	case "fail", "restore":
		if len(f) < 4 {
			return fmt.Errorf("%s <a> <z> at=<t> [detect=<d>]", f[0])
		}
		ev.A, ev.Z = f[1], f[2]
		if err := needAt(f[3:]); err != nil {
			return err
		}
		sc.Events = append(sc.Events, ev)
	case "flap":
		if len(f) < 6 {
			return errors.New("flap <a> <z> at=<t> count=<n> down=<d> up=<d> [detect=<d>] [jitter=<d>]")
		}
		ev.A, ev.Z = f[1], f[2]
		timing["count"] = dsl.SetInt(&ev.Count, 1, 10000)
		timing["down"] = dsl.Set(&ev.Down, dsl.PositiveDuration)
		timing["up"] = dsl.Set(&ev.Up, dsl.PositiveDuration)
		timing["jitter"] = dsl.Set(&ev.Jitter, dsl.Duration)
		if err := timing.Apply(f[0], f[3:]); err != nil {
			return err
		}
		if ev.Count == 0 {
			return errors.New("flap needs count=<n>")
		}
		if ev.At < 0 || ev.Down == 0 || ev.Up == 0 {
			return errors.New("flap needs at=, down=, and up=")
		}
		sc.Events = append(sc.Events, ev)
	case "crash", "restart", "cut", "uncut", "asfail", "asrestore":
		if len(f) < 3 {
			return fmt.Errorf("%s <name> at=<t> [detect=<d>]", f[0])
		}
		ev.A = f[1]
		if err := needAt(f[2:]); err != nil {
			return err
		}
		sc.Events = append(sc.Events, ev)
	case "rkill", "rrestart", "ckpt", "ckill+resume":
		if len(f) != 2 {
			return fmt.Errorf("%s at=<t>", f[0])
		}
		delete(timing, "detect")
		if err := needAt(f[1:]); err != nil {
			return err
		}
		switch f[0] {
		case "ckpt":
			sc.Checkpoints = append(sc.Checkpoints, ev.At)
		case "ckill+resume":
			sc.CrashResumes = append(sc.CrashResumes, ev.At)
		default:
			sc.Events = append(sc.Events, Event{At: ev.At, Op: ev.Op})
		}
	default:
		return fmt.Errorf("unknown directive %q", f[0])
	}
	return nil
}
