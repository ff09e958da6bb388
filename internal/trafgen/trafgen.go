// Package trafgen synthesizes the customer workloads of the experiments:
// constant-bit-rate voice, Poisson data, exponential on-off sources, and a
// greedy AIMD bulk transfer that probes for bandwidth the way TCP does.
// These stand in for the production traffic the paper's provider would
// carry (a documented substitution — see DESIGN.md).
package trafgen

import (
	"math"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/netsim"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/stats"
	"mplsvpn/internal/topo"
)

// Flow describes one traffic stream: where it enters the network, its
// addressing, and where its statistics accumulate.
type Flow struct {
	Name     string
	At       topo.NodeID // injection node (host/CE)
	VPN      string      // origin VPN recorded on packets (isolation checks)
	Src, Dst addr.IPv4
	SrcPort  uint16
	DstPort  uint16
	Proto    uint8
	DSCP     packet.DSCP // pre-marked DSCP (0 when the CE classifier marks)
	Stats    *stats.FlowStats
	// Slot is the delivery-accounting slot the backbone registering the flow
	// assigned its 5-tuple, stamped on every packet as FlowSlot (0 = none).
	Slot int32

	seq uint64
}

// NewFlow builds a flow with fresh statistics.
func NewFlow(name string, at topo.NodeID, src, dst addr.IPv4, dstPort uint16) *Flow {
	return &Flow{
		Name: name, At: at, Src: src, Dst: dst,
		SrcPort: 40000, DstPort: dstPort, Proto: packet.ProtoUDP,
		Stats: &stats.FlowStats{Name: name},
	}
}

// Packet materializes the next packet of the flow as a fresh allocation.
// Steady-state senders go through fill + the network's packet pool instead;
// Packet remains for probes and tests that outlive delivery.
func (f *Flow) Packet(payload int) *packet.Packet {
	return f.fill(&packet.Packet{}, payload)
}

// fill stamps the flow's headers onto a (possibly recycled) packet.
func (f *Flow) fill(p *packet.Packet, payload int) *packet.Packet {
	f.seq++
	p.IP = packet.IPv4Header{
		DSCP: f.DSCP, TTL: 64, Protocol: f.Proto,
		Src: f.Src, Dst: f.Dst,
	}
	p.L4 = packet.L4Header{SrcPort: f.SrcPort, DstPort: f.DstPort}
	p.Payload = payload
	p.Seq = f.seq
	p.OriginVPN = f.VPN
	p.FlowSlot = f.Slot
	return p
}

// send injects one packet, drawn from the network's pool, and records it.
// The pool recycles it at delivery or drop, so a long-running source
// recirculates a handful of packets instead of allocating one per send.
func (f *Flow) send(n *netsim.Network, payload int) {
	f.Stats.RecordSent()
	n.Inject(f.At, f.fill(n.NewPacket(f.At), payload))
}

// Source is a self-rescheduling traffic generator whose pacing state can be
// checkpointed. The concrete sources implement sim.Action — the pending
// repost in the event heap is the source itself, which is what lets a
// snapshot identify in-flight generator events and re-arm them after a
// restore (register sources with core's RegisterSource for that).
type Source interface {
	sim.Action
	State(c *snapshot.Codec)
}

// CBR emits fixed-size packets at a fixed interval from start until stop:
// the voice workload (e.g. 160-byte G.711 frames every 20 ms). The source
// paces itself on the clock of the injection node's shard, so a sharded
// run keeps every flow's schedule inside its own partition.
func CBR(n *netsim.Network, f *Flow, payload int, interval, start, stop sim.Time) Source {
	s := &cbrSrc{n: n, f: f, clk: n.SourceClock(f.At), payload: payload,
		interval: interval, stop: stop, t: start}
	if start <= stop {
		s.clk.Post(start, s)
	}
	return s
}

// cbrSrc is a self-rescheduling sim.Action: one struct per source, reposted
// every tick into the heap slot it just left, so the steady state allocates
// nothing.
type cbrSrc struct {
	n              *netsim.Network
	f              *Flow
	clk            *sim.Queue
	payload        int
	interval, stop sim.Time
	t              sim.Time
}

func (s *cbrSrc) Run() {
	s.f.send(s.n, s.payload)
	s.t += s.interval
	if s.t <= s.stop {
		s.clk.Post(s.t, s)
	}
}

// Poisson emits fixed-size packets with exponential interarrivals at the
// given mean rate (packets/second): the classic data-traffic model.
func Poisson(n *netsim.Network, f *Flow, payload int, pktPerSec float64, start, stop sim.Time, rng *sim.Rand) Source {
	s := &poissonSrc{n: n, f: f, clk: n.SourceClock(f.At), payload: payload,
		rate: pktPerSec, stop: stop, rng: rng, t: start}
	if start <= stop {
		s.clk.Post(start, s)
	}
	return s
}

type poissonSrc struct {
	n       *netsim.Network
	f       *Flow
	clk     *sim.Queue
	payload int
	rate    float64
	stop    sim.Time
	rng     *sim.Rand
	t       sim.Time
}

func (s *poissonSrc) Run() {
	s.f.send(s.n, s.payload)
	gap := sim.Time(s.rng.ExpFloat64() / s.rate * float64(sim.Second))
	if gap < sim.Microsecond {
		gap = sim.Microsecond
	}
	s.t += gap
	if s.t <= s.stop {
		s.clk.Post(s.t, s)
	}
}

// OnOff emits CBR bursts during exponentially distributed on-periods
// separated by exponential off-periods: a talkspurt/silence voice model or
// a bursty data source.
func OnOff(n *netsim.Network, f *Flow, payload int, interval, meanOn, meanOff, start, stop sim.Time, rng *sim.Rand) Source {
	s := &onOffSrc{n: n, f: f, clk: n.SourceClock(f.At), payload: payload,
		interval: interval, meanOn: meanOn, meanOff: meanOff, stop: stop,
		rng: rng, t: start}
	s.clk.Post(start, s)
	return s
}

// onOffSrc alternates between two self-rescheduling states: a burst-start
// event (draw the on-duration, then post the first send at the same
// timestamp, mirroring the closure version's event pattern) and per-packet
// send events until the burst ends, when it draws the off-gap.
type onOffSrc struct {
	n                         *netsim.Network
	f                         *Flow
	clk                       *sim.Queue
	payload                   int
	interval, meanOn, meanOff sim.Time
	stop, end, t              sim.Time
	rng                       *sim.Rand
	inBurst                   bool
}

func (s *onOffSrc) Run() {
	if !s.inBurst {
		if s.t > s.stop {
			return
		}
		onDur := sim.Time(s.rng.ExpFloat64() * float64(s.meanOn))
		s.end = s.t + onDur
		s.inBurst = true
		s.clk.Post(s.t, s)
		return
	}
	s.f.send(s.n, s.payload)
	s.t += s.interval
	if s.t > s.end || s.t > s.stop {
		// Off period, then the next burst.
		off := sim.Time(s.rng.ExpFloat64() * float64(s.meanOff))
		s.inBurst = false
		if s.t+off <= s.stop {
			s.t += off
			s.clk.Post(s.t, s)
		}
		return
	}
	s.clk.Post(s.t, s)
}

// AIMD is a greedy window-based bulk source modeled on TCP Reno: slow
// start grows the window by one packet per ack until the slow-start
// threshold, congestion avoidance by one packet per window's worth of
// acks above it; a detected drop halves the threshold and resumes there
// (fast recovery), and an RTO probe that finds traffic outstanding with
// no acks since the last probe collapses the window back to one packet.
// Deliveries and drops are fed back by the harness via Ack and Loss.
//
// AIMD is closed-loop with zero lookahead (an ack can trigger an injection
// at the same instant), so under a sharded engine it runs on the global
// band and reacts at barrier granularity: behaviour stays deterministic
// for a fixed shard count but is not byte-identical to the serial engine.
//
// Unlike the old closure-per-fill design, AIMD keeps exactly one event of
// its own in the heap — the periodic RTO probe, carried by the source
// itself as a sim.Action — so it satisfies Source and checkpoints like
// any paced generator: cwnd, ssthresh, and the ack ledger serialize, and
// the pending probe re-arms through core's source registry.
type AIMD struct {
	Flow    *Flow
	Net     *netsim.Network
	Payload int
	Stop    sim.Time
	RTO     sim.Time // retransmission-timeout stand-in: paces loss detection

	window   float64 // congestion window (cwnd), packets
	ssthresh float64 // slow-start threshold, packets
	inFlight int
	acked    uint64
	probed   uint64 // acked as of the previous RTO probe
}

// NewAIMD creates a bulk source with an initial window of 2 packets and
// the slow-start threshold out of the way.
func NewAIMD(n *netsim.Network, f *Flow, payload int, stop sim.Time) *AIMD {
	return &AIMD{
		Flow: f, Net: n, Payload: payload, Stop: stop,
		RTO: 200 * sim.Millisecond, window: 2, ssthresh: math.Inf(1),
	}
}

// Start begins transmission at the given time.
func (a *AIMD) Start(at sim.Time) {
	a.Net.E.Post(at, a)
}

// Run is the RTO probe: if a full RTO passed with packets outstanding and
// nothing acked, the transfer has stalled — collapse to slow start. Either
// way it tops up the window and re-arms itself until the stop time.
func (a *AIMD) Run() {
	if a.Net.E.Now() > a.Stop {
		return
	}
	if a.acked == a.probed && a.inFlight > 0 {
		a.ssthresh = a.window / 2
		if a.ssthresh < 2 {
			a.ssthresh = 2
		}
		a.window = 1
	}
	a.probed = a.acked
	a.fill()
	a.Net.E.PostAfter(a.RTO, a)
}

// fill tops the in-flight count up to the window.
func (a *AIMD) fill() {
	if a.Net.E.Now() > a.Stop {
		return
	}
	for a.inFlight < int(a.window) {
		a.inFlight++
		a.Flow.send(a.Net, a.Payload)
	}
}

// Ack records a delivered packet: exponential growth in slow start,
// additive increase above the threshold.
func (a *AIMD) Ack() {
	a.acked++
	if a.inFlight > 0 {
		a.inFlight--
	}
	if a.window < a.ssthresh {
		a.window++
	} else {
		a.window += 1 / a.window
	}
	a.fill()
}

// Loss records a lost packet: multiplicative decrease, resuming at the
// new threshold (fast recovery).
func (a *AIMD) Loss() {
	if a.inFlight > 0 {
		a.inFlight--
	}
	a.ssthresh = a.window / 2
	if a.ssthresh < 2 {
		a.ssthresh = 2
	}
	a.window = a.ssthresh
	if a.window < 1 {
		a.window = 1
	}
	a.fill()
}

// Window exposes the current congestion window (for tests).
func (a *AIMD) Window() float64 { return a.window }

// Ssthresh exposes the slow-start threshold (for tests).
func (a *AIMD) Ssthresh() float64 { return a.ssthresh }
