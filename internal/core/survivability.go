// Control-plane survivability: a sim-clock hello/keepalive state machine
// sessionizes the BGP mesh and LDP. A crashed or control-plane-partitioned
// router misses hellos; after HoldMisses scans its sessions flap. With
// graceful restart (RFC 4724 / RFC 3478 shape) peers retain the flapped
// box's routes and label bindings as stale and keep forwarding on them —
// the paper's availability story — until the box returns (mark-and-sweep
// refresh) or the restart timer expires (stale state swept, withdrawals
// propagated, and a control-plane-only crash hardens into a real one).
// Route-flap damping penalties decay on the same scan.
package core

import (
	"fmt"

	"mplsvpn/internal/bgp"
	"mplsvpn/internal/ldp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
	"mplsvpn/internal/topo"
)

// Survivability defaults.
const (
	DefaultHelloInterval = 25 * sim.Millisecond
	DefaultHoldMisses    = 3
	DefaultRestartTime   = 500 * sim.Millisecond
)

// SurvivabilityOptions tunes EnableSurvivability. Zero values select
// defaults.
type SurvivabilityOptions struct {
	// Hello is the hello/keepalive scan period; a session is declared lost
	// after HoldMisses consecutive missed scans (the hold time).
	Hello      sim.Time
	HoldMisses int

	// GracefulRestart retains a flapped node's routes and label bindings as
	// stale for RestartTime, preserving forwarding state instead of
	// withdrawing it (RFC 4724). Off, session loss withdraws immediately.
	GracefulRestart bool
	RestartTime     sim.Time

	// Damping enables route-flap damping at every speaker (zero = off).
	Damping bgp.DampingConfig

	// Horizon bounds the pre-scheduled hello scans in virtual time, like
	// TelemetryOptions.Horizon; the engine can still quiesce after it.
	Horizon sim.Time
}

// survState is one provider node's session health as the hello state
// machine sees it.
type survState int

const (
	sessUp survState = iota
	sessDown
	sessRestarting
)

func (s survState) String() string {
	switch s {
	case sessDown:
		return "down"
	case sessRestarting:
		return "restarting"
	}
	return "up"
}

// survSession is the per-node hello state.
type survSession struct {
	state      survState
	misses     int
	grDeadline sim.Time
}

// survivability is the live state hanging off the backbone.
type survivability struct {
	opt  SurvivabilityOptions
	sess map[topo.NodeID]*survSession

	// SessionStats counters.
	flaps      int
	restores   int
	staleSwept int
	withdrawn  int
	damped     int
	reused     int
}

func (s *survivability) sessionFor(n topo.NodeID) *survSession {
	st, ok := s.sess[n]
	if !ok {
		st = &survSession{}
		s.sess[n] = st
	}
	return st
}

// stateOf is nil-safe: without survivability every session is Up.
func (s *survivability) stateOf(n topo.NodeID) survState {
	if s == nil {
		return sessUp
	}
	if st, ok := s.sess[n]; ok {
		return st.state
	}
	return sessUp
}

// EnableSurvivability switches the control-plane survivability layer on.
// Idempotent; call before the run with Horizon covering its duration.
func (b *Backbone) EnableSurvivability(opts SurvivabilityOptions) {
	if b.surv != nil {
		return
	}
	if opts.Hello == 0 {
		opts.Hello = DefaultHelloInterval
	}
	if opts.HoldMisses == 0 {
		opts.HoldMisses = DefaultHoldMisses
	}
	if opts.RestartTime == 0 {
		opts.RestartTime = DefaultRestartTime
	}
	b.surv = &survivability{opt: opts, sess: make(map[topo.NodeID]*survSession)}
	b.BGP.SetClock(func() sim.Time { return b.E.Now() })
	if opts.Damping.Enabled() {
		b.BGP.SetDamping(opts.Damping)
	}
	if opts.Horizon > 0 {
		for t := opts.Hello; t <= opts.Horizon; t += opts.Hello {
			b.E.After(t, b.helloScan)
		}
	}
}

// SessionStats is the survivability layer's externally visible accounting.
type SessionStats struct {
	Flaps      int // sessions declared lost
	Restores   int // sessions re-established
	StaleSwept int // stale routes swept (restart expiry or post-refresh)
	Withdrawn  int // routes withdrawn by session loss or sweep
	Damped     int // prefixes suppressed by route-flap damping
	Reused     int // suppressed prefixes reinstated by decay
}

// SessionStats reports the survivability counters (zero value when the
// layer is off).
func (b *Backbone) SessionStats() SessionStats {
	if b.surv == nil {
		return SessionStats{}
	}
	s := b.surv
	return SessionStats{
		Flaps: s.flaps, Restores: s.restores,
		StaleSwept: s.staleSwept, Withdrawn: s.withdrawn,
		Damped: s.damped, Reused: s.reused,
	}
}

// helloScan is one hello/keepalive round over every provider router, plus
// the damping decay tick. Pre-scheduled on the engine's global band every
// Hello up to the horizon, so the serial and sharded engines see the same
// schedule.
func (b *Backbone) helloScan() {
	s := b.surv
	now := b.E.Now()
	for _, n := range b.providerNodes {
		st := s.sessionFor(n)
		dead := b.nodeDown[n] || b.ctrlDown[n]
		switch st.state {
		case sessUp:
			if !dead {
				st.misses = 0
				continue
			}
			st.misses++
			if st.misses >= s.opt.HoldMisses {
				b.sessionLost(n, st)
			}
		case sessRestarting:
			if !dead {
				b.sessionRestored(n, st)
			} else if now >= st.grDeadline {
				b.grExpired(n, st)
			}
		case sessDown:
			if !dead {
				b.sessionRestored(n, st)
			}
		}
	}
	if reused := b.BGP.DecayDamping(now); len(reused) > 0 {
		for _, p := range reused {
			s.reused++
			b.journal(telemetry.EventRouteReused, "prefix:"+p.String(),
				"flap penalty decayed to reuse threshold; paths reinstated")
		}
		b.importVRFs()
	}
}

// sessionLost flaps every session of node n: BGP routes are stale-retained
// (graceful restart) or withdrawn, LDP bindings likewise, and the per-peer
// impact is journaled as session_flap events.
func (b *Backbone) sessionLost(n topo.NodeID, st *survSession) {
	s := b.surv
	gr := s.opt.GracefulRestart
	name := b.G.Name(n)
	if gr {
		st.state = sessRestarting
		st.grDeadline = b.E.Now() + s.opt.RestartTime
	} else {
		st.state = sessDown
	}
	s.flaps++

	if _, ok := b.BGP.Speaker(n); ok {
		impacts := b.BGP.SessionDown(n, gr)
		withdrawn := 0
		for _, im := range impacts {
			b.journal(telemetry.EventSessionFlap, "session:bgp:"+name,
				fmt.Sprintf("protocol=bgp node=%s peer=%s stale_routes=%d withdrawn=%d",
					name, b.G.Name(im.Peer), im.Stale, im.Withdrawn))
			withdrawn += im.Withdrawn
		}
		if len(impacts) == 0 {
			b.journal(telemetry.EventSessionFlap, "session:bgp:"+name,
				fmt.Sprintf("protocol=bgp node=%s stale_routes=0 withdrawn=0", name))
		}
		if withdrawn > 0 {
			s.withdrawn += withdrawn
			b.importVRFs()
		}
	}
	if b.LDP != nil {
		if b.LDP.Speaker(n) != nil {
			for _, im := range b.LDP.SessionDown(n, gr) {
				b.journal(telemetry.EventSessionFlap, "session:ldp:"+name,
					fmt.Sprintf("protocol=ldp node=%s peer=%s stale_bindings=%d",
						name, b.G.Name(im.Peer), im.Bindings))
			}
		}
	}
	if b.tel != nil {
		b.tel.Reg.Counter("ctrl_session_flaps", telemetry.Labels{Node: name}).Inc()
		b.tel.Reg.Counter("ctrl_session_flaps_total", telemetry.Labels{}).Inc()
	}
}

// sessionRestored re-establishes node n's sessions: BGP reconverges so the
// returned box re-announces (refreshing stale routes in place), then the
// mark-and-sweep pass withdraws what it no longer announces, and VRFs
// re-import.
func (b *Backbone) sessionRestored(n topo.NodeID, st *survSession) {
	s := b.surv
	name := b.G.Name(n)
	st.state = sessUp
	st.misses = 0
	s.restores++

	if _, ok := b.BGP.Speaker(n); ok {
		pre := b.BGP.StaleFrom(n)
		b.BGP.SessionUp(n)
		b.BGP.Converge()
		swept, sweptBy := b.BGP.SweepStale(n)
		sweptAt := make(map[topo.NodeID]int, len(sweptBy))
		for _, im := range sweptBy {
			sweptAt[im.Peer] = im.Withdrawn
		}
		for _, im := range pre {
			b.journal(telemetry.EventSessionRestored, "session:bgp:"+name,
				fmt.Sprintf("protocol=bgp node=%s peer=%s stale_refreshed=%d stale_swept=%d",
					name, b.G.Name(im.Peer), im.Stale-sweptAt[im.Peer], sweptAt[im.Peer]))
		}
		if len(pre) == 0 {
			b.journal(telemetry.EventSessionRestored, "session:bgp:"+name,
				fmt.Sprintf("protocol=bgp node=%s stale_refreshed=0 stale_swept=0", name))
		}
		s.staleSwept += swept
		s.withdrawn += swept
		b.importVRFs()
		b.journalSuppressed()
	} else {
		b.journal(telemetry.EventSessionRestored, "session:"+name,
			"control-plane sessions re-established")
	}
	if b.LDP != nil {
		b.LDP.SessionUp(n)
	}
	if b.tel != nil {
		b.tel.Reg.Counter("ctrl_session_restores", telemetry.Labels{Node: name}).Inc()
	}
}

// grExpired ends a graceful restart that outlived its timer: stale routes
// are swept and withdrawn, and a control-plane-only crash hardens into a
// real one — the preserved forwarding state has aged out.
func (b *Backbone) grExpired(n topo.NodeID, st *survSession) {
	s := b.surv
	name := b.G.Name(n)
	st.state = sessDown

	if _, ok := b.BGP.Speaker(n); ok {
		swept, _ := b.BGP.SweepStale(n)
		s.staleSwept += swept
		s.withdrawn += swept
		b.journal(telemetry.EventStaleSwept, "session:bgp:"+name,
			fmt.Sprintf("restart timer expired; stale_routes_swept=%d", swept))
		if swept > 0 {
			b.importVRFs()
		}
	}
	if b.LDP != nil {
		if b.LDP.Speaker(n) != nil {
			b.LDP.MarkSession(n, ldp.SessionDownState)
		}
	}
	if b.ctrlDown[n] {
		delete(b.ctrlDown, n)
		b.hardCrashNode(n)
		b.journal(telemetry.EventNodeDown, "node:"+name,
			"graceful-restart timer expired; forwarding state withdrawn")
		b.scheduleReconverge(0)
	}
}

// journalSuppressed drains the newly damped prefixes into the journal.
func (b *Backbone) journalSuppressed() {
	for _, p := range b.BGP.TakeSuppressed() {
		b.surv.damped++
		b.journal(telemetry.EventRouteDamped, "prefix:"+p.String(),
			"flap penalty crossed suppress threshold; received paths suppressed")
	}
}
