package trafgen

import (
	"cmp"

	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
)

// State walks the flow's dynamic state: the packet sequence number and the
// accumulated statistics. Addressing is scenario configuration.
func (f *Flow) State(c *snapshot.Codec) {
	snapshot.Uint(c, &f.seq)
	f.Stats.State(c)
}

// The sources walk their pacing cursor and the state of their private
// random stream; rates, intervals, and endpoints are construction arguments
// the scenario rebuild supplies (the rebuilt source holds an equally-forked
// stream whose state a load then overwrites).

func (s *cbrSrc) State(c *snapshot.Codec) { snapshot.Int(c, &s.t) }

func (s *poissonSrc) State(c *snapshot.Codec) {
	snapshot.Int(c, &s.t)
	s.rng.SetState(c.U64(s.rng.State()))
}

// State walks AIMD's full congestion state — cwnd, ssthresh, the in-flight
// count, and the ack ledger the RTO probe compares against. Flow, payload,
// stop, and RTO are construction arguments. The pending probe event itself
// travels through core's source registry.
func (a *AIMD) State(c *snapshot.Codec) {
	c.F64(&a.window)
	c.F64(&a.ssthresh)
	snapshot.Int(c, &a.inFlight)
	snapshot.Uint(c, &a.acked)
	snapshot.Uint(c, &a.probed)
}

func (s *onOffSrc) State(c *snapshot.Codec) {
	snapshot.Int(c, &s.t)
	snapshot.Int(c, &s.end)
	c.Bool(&s.inBurst)
	s.rng.SetState(c.U64(s.rng.State()))
}

// State walks the exchange: the pacer's cursor, the outstanding requests by
// transaction sequence with the time each was sent, and the results so far.
// The two flows travel with every other registered flow.
func (rr *ReqResp) State(c *snapshot.Codec) {
	snapshot.Int(c, &rr.t)
	snapshot.Map(c, &rr.pending, cmp.Compare[uint64], 2, snapshot.Uint[uint64], snapshot.Int[sim.Time])
	snapshot.Int(c, &rr.Completed)
	rr.RTT.State(c)
}
