// Package netsim runs packets through the topology in virtual time: each
// directed link has an egress port with a QoS scheduler, transmission takes
// bytes*8/bandwidth seconds, propagation takes the link delay, and every
// arrival re-enters the next router's forwarding pipeline.
//
// This is the simulated testbed standing in for the paper's hardware: the
// queueing, scheduling, and reservation behaviour that the QoS experiments
// measure all happens here.
package netsim

import (
	"fmt"

	"mplsvpn/internal/device"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
	"mplsvpn/internal/topo"
)

// DefaultQueueBytes is the per-port buffer when no scheduler is installed
// explicitly: 64 KB, a typical shallow router buffer that congests visibly
// at the simulated link speeds.
const DefaultQueueBytes = 64 * 1024

// Network binds the event engine, the topology, and the routers.
type Network struct {
	E       *sim.Engine
	G       *topo.Graph
	Routers map[topo.NodeID]*device.Router

	// Dense hot-path tables indexed by ID: one bounds check instead of a
	// map probe per hop. routerAt mirrors Routers; ports is the per-link
	// egress state, grown lazily and fully materialized before sharding.
	routerAt []*device.Router
	ports    []*port

	lanes []*lane // per-shard queue + freelists; [0] alone when serial

	// OnDeliver is invoked when a packet reaches its destination. The
	// packet is recycled when the hook returns: do not retain it.
	OnDeliver func(at topo.NodeID, p *packet.Packet)
	// OnDeliverLocal, when set on a sharded network, replaces the deferred
	// OnDeliver barrier note entirely: it runs inside the destination
	// shard's segment, on the worker goroutine, with the shard-local time,
	// and the packet recycles into the shard's own pool immediately. It
	// exists to keep per-packet accounting off the serial global band —
	// install it only when every side effect is confined to the
	// destination shard (or commutative, e.g. a per-shard accumulator
	// cell): flow stats keyed by destination, isolation counters. Leave it
	// nil whenever a global observer (telemetry, AIMD feedback, caller
	// delivery hooks) needs the deterministic time-sorted barrier stream.
	OnDeliverLocal func(shard int, now sim.Time, at topo.NodeID, p *packet.Packet)
	// OnDrop is invoked when a packet is dropped anywhere, with the typed
	// reason (format with reason.String() — the hot path never does). The
	// packet is recycled when the hook returns: do not retain it.
	OnDrop func(at topo.NodeID, p *packet.Packet, reason packet.DropReason)

	// HopDelay is a fixed per-router processing delay (lookup cost).
	HopDelay sim.Time

	// Counters.
	Injected  int
	Delivered int
	Dropped   int

	telReg *telemetry.Registry // nil until EnableTelemetry

	// Sharding state (nil/zero when serial — see shard.go).
	shardOf  []int                       // node -> owning shard
	acc      *telemetry.ShardAccumulator // per-shard counter cells
	handoffs int64                       // packets that crossed shards
}

// port is the egress side of one directed link. Its transmit state is two
// fields, not a pair of events:
//
//   - busyUntil is the instant the last bit of the packet being serialized
//     leaves (t1). The port is idle iff now >= busyUntil and no wake-up is
//     pending; an idle port starts a packet the moment it is offered — the
//     scheduler rules on it (qos.Scheduler.Pass) without queueing it — and
//     posts the far-end arrival directly at busyUntil + link delay: one
//     event per hop.
//   - wake is set while an evTxKick is pending for the port: at busyUntil,
//     posted by the first packet that had to queue behind the wire (and
//     re-posted by each wake-up that leaves a backlog behind), or at the
//     shaper's conformance instant. Invariant: a packet in the scheduler or
//     in pending implies wake. It is what lets enqueue treat "idle" as "the
//     scheduler holds nothing", and CheckConservation verifies it.
//
// The tx ledger settles lazily: wireBytes holds the size of the packet last
// started until settle folds it into txBytes (or, doomed, an evTxDrop at
// busyUntil folds it into dropBytes). Every reader settles first, so the
// ledger always reads as if settled at t1.
type port struct {
	link      topo.LinkID
	sched     qos.Scheduler
	busyUntil sim.Time
	wake      bool
	shaper    *qos.TokenBucket // optional egress shaper
	pending   *packet.Packet   // dequeued but held for shaper conformance
	txBytes   int64            // bytes fully serialized onto the wire
	txPkts    int64
	// wireBytes is the size of the packet last started and not yet settled
	// as tx or drop. At quiescence it settles to zero, so
	// offered == tx + drop + queued holds exactly.
	wireBytes int64

	// While the link is down under the packet being serialized the
	// transmission is doomed: its pending far-end arrival (fly) has been
	// emptied and a pending evTxDrop at busyUntil (doom) holds the packet
	// instead. The event pointers are for linkChanged to move the packet
	// between the two; they are only followed while that event is still
	// pending (fly while now < busyUntil, doom while doomed) and go stale
	// once it has run and recycled.
	doomed    bool
	fly, doom *dpEvent

	// Per-port drop accounting: every packet offered to this port for
	// egress, and every byte the port refused (queue overflow, link down).
	offeredBytes int64
	offeredPkts  int64
	dropBytes    int64
	dropPkts     int64

	tel *portTel // nil when telemetry is off — the hot path pays one nil check
}

// settle folds a finished serialization into the tx ledger. Only the owning
// shard (at the port's next start) or the coordinator between segments (any
// ledger read) may call it. A doomed transmission is left for its evTxDrop.
func (pt *port) settle(now sim.Time) {
	if pt.wireBytes != 0 && now >= pt.busyUntil && !pt.doomed {
		pt.txBytes += pt.wireBytes
		pt.txPkts++
		pt.wireBytes = 0
	}
}

// portTel holds the port's pre-resolved telemetry handles, indexed by class
// so the enqueue path does no map lookups.
type portTel struct {
	offered [qos.NumClasses]*telemetry.Counter // bytes offered, per class
	dropped [qos.NumClasses]*telemetry.Counter // bytes refused, per class
	util    *telemetry.Gauge
}

// New creates a network over g driven by engine e. Routers are registered
// with AddRouter; ports get FIFO schedulers by default.
func New(e *sim.Engine, g *topo.Graph) *Network {
	n := &Network{
		E: e, G: g,
		Routers: make(map[topo.NodeID]*device.Router),
		lanes:   []*lane{{q: e.Queue(sim.GlobalBand)}},
	}
	g.OnLinkState(n.linkChanged)
	if nn := g.NumNodes(); nn > 0 {
		n.routerAt = make([]*device.Router, nn)
	}
	if nl := g.NumLinks(); nl > 0 {
		n.ports = make([]*port, nl)
	}
	return n
}

// AddRouter registers the forwarding element for a node.
func (n *Network) AddRouter(r *device.Router) {
	n.Routers[r.Node] = r
	for int(r.Node) >= len(n.routerAt) {
		n.routerAt = append(n.routerAt, nil)
	}
	n.routerAt[r.Node] = r
}

// Router returns the device at a node.
func (n *Network) Router(id topo.NodeID) *device.Router { return n.Routers[id] }

// routerFor is the hot-path router lookup: a dense slice indexed by node.
func (n *Network) routerFor(id topo.NodeID) *device.Router {
	if int(id) >= len(n.routerAt) {
		return nil
	}
	return n.routerAt[id]
}

// SetScheduler installs a QoS scheduler on one directed link's egress port.
func (n *Network) SetScheduler(link topo.LinkID, s qos.Scheduler) {
	p := n.port(link)
	if p == nil {
		p = &port{link: link}
		n.setPort(link, p)
	}
	p.sched = s
	n.attachPortTel(p)
}

// port returns the egress port for a link, or nil if none exists yet.
func (n *Network) port(link topo.LinkID) *port {
	if int(link) >= len(n.ports) {
		return nil
	}
	return n.ports[link]
}

func (n *Network) setPort(link topo.LinkID, p *port) {
	for int(link) >= len(n.ports) {
		n.ports = append(n.ports, nil)
	}
	n.ports[link] = p
}

// SetShaper installs a token-bucket shaper on a port: packets leave no
// faster than the bucket refills, whatever the physical link rate. This is
// the CE-side contract enforcement of the paper's CPE ("dictate the amount
// of bandwidth dedicated to each application") — unlike a policer it
// delays rather than drops.
func (n *Network) SetShaper(link topo.LinkID, tb *qos.TokenBucket) {
	n.portFor(link).shaper = tb
}

// SetSchedulerFactory installs a scheduler on every directed link.
func (n *Network) SetSchedulerFactory(f func(l *topo.Link) qos.Scheduler) {
	for i := 0; i < n.G.NumLinks(); i++ {
		id := topo.LinkID(i)
		p := &port{link: id, sched: f(n.G.Link(id))}
		n.setPort(id, p)
		n.attachPortTel(p)
	}
}

func (n *Network) portFor(link topo.LinkID) *port {
	p := n.port(link)
	if p == nil {
		p = &port{link: link, sched: qos.NewFIFO(DefaultQueueBytes)}
		n.setPort(link, p)
		n.attachPortTel(p)
	}
	return p
}

// EnableTelemetry resolves per-port instruments in reg for every existing
// port; ports created or re-scheduled later attach automatically. Call once,
// before or after schedulers are installed.
func (n *Network) EnableTelemetry(reg *telemetry.Registry) {
	n.telReg = reg
	for _, p := range n.ports {
		if p != nil {
			n.attachPortTel(p)
		}
	}
}

// attachPortTel pre-resolves the port's counters so the enqueue path does no
// registry lookups, and binds drop counters into the scheduler's class
// queues. Queues shared across classes (FIFO) are bound once without a class
// label.
func (n *Network) attachPortTel(p *port) {
	if n.telReg == nil {
		return
	}
	l := n.G.Link(p.link)
	linkName := n.G.Name(l.From) + "->" + n.G.Name(l.To)
	pt := &portTel{util: n.telReg.Gauge("link_utilization", telemetry.Labels{Link: linkName})}
	for c := qos.Class(0); c < qos.NumClasses; c++ {
		lbl := telemetry.Labels{Link: linkName, Class: c.String()}
		pt.offered[c] = n.telReg.Counter("port_offered_bytes", lbl)
		pt.dropped[c] = n.telReg.Counter("port_dropped_bytes", lbl)
	}
	p.tel = pt
	if p.sched == nil {
		return
	}
	// Group classes by backing queue: a queue serving several classes (a
	// shared FIFO) gets one unlabelled series instead of the last class's.
	shared := make(map[*qos.Queue][]qos.Class)
	for c := qos.Class(0); c < qos.NumClasses; c++ {
		if q := p.sched.ClassQueue(c); q != nil {
			shared[q] = append(shared[q], c)
		}
	}
	for q, classes := range shared {
		lbl := telemetry.Labels{Link: linkName}
		if len(classes) == 1 {
			lbl.Class = classes[0].String()
		}
		q.TelDropFull = n.telReg.Counter("queue_dropped_full_pkts", lbl)
		q.TelDropEarly = n.telReg.Counter("queue_dropped_early_pkts", lbl)
	}
}

// SampleTelemetry refreshes the sampled per-port gauges (link utilization).
// Core hangs this off the snapshot OnSample hook.
func (n *Network) SampleTelemetry() {
	for id, p := range n.ports {
		if p != nil && p.tel != nil {
			p.tel.util.Set(n.LinkUtilization(topo.LinkID(id)))
		}
	}
}

// Inject introduces a packet at a node (a host/CE sourcing traffic). The
// packet is processed immediately at the injection point, on the clock of
// the node's owning shard.
func (n *Network) Inject(at topo.NodeID, p *packet.Packet) {
	ln := n.laneOf(at)
	p.SentAt = ln.q.Now()
	n.count(ln, ctrInjected, 1)
	n.process(ln, at, p, -1)
}

// process runs one router's pipeline and acts on the verdict. ln is the
// lane of the shard owning node at (lane 0 when serial).
func (n *Network) process(ln *lane, at topo.NodeID, p *packet.Packet, inLink topo.LinkID) {
	r := n.routerFor(at)
	if r == nil {
		n.drop(ln, at, p, packet.DropNoRouter)
		return
	}
	v := r.Receive(ln.q.Now(), p, inLink)
	if v.Drop != packet.DropNone {
		n.drop(ln, at, p, v.Drop)
		return
	}
	if v.Deliver {
		n.deliver(ln, at, p)
		return
	}
	// Headers are settled for this hop: refresh the cached wire length once
	// so the queue, scheduler, shaper, and serialization all reuse it.
	p.RefreshWire()
	delay := v.Delay + n.HopDelay
	if delay > 0 {
		ev := ln.pool.getEvent()
		ev.n, ev.kind, ev.ln, ev.node, ev.link, ev.p = n, evEnqueue, ln, at, v.OutLink, p
		ln.q.PostAfter(delay, ev)
		return
	}
	n.enqueue(ln, at, v.OutLink, p)
}

// deliver finalizes a packet that terminated at node at: count it, notify,
// and recycle. Delivery hooks touch global state (flow stats, SLA watcher,
// VPN counters): when sharded they defer to the barrier, where they
// dispatch in deterministic order at this same timestamp — and the recycle
// rides the same note, because the hook must see the packet intact.
func (n *Network) deliver(ln *lane, at topo.NodeID, p *packet.Packet) {
	n.count(ln, ctrDelivered, 1)
	if n.shardOf != nil {
		if n.OnDeliverLocal != nil {
			// Shard-confined accounting: no barrier note, no coordinator
			// round trip — the delivery settles entirely inside the
			// segment that produced it.
			n.OnDeliverLocal(ln.id, ln.q.Now(), at, p)
			ln.pool.putPacket(p)
			return
		}
		if n.OnDeliver == nil {
			// No observer: the packet's journey ends inside this shard's
			// segment, so it recycles into the shard's own pool right away.
			ln.pool.putPacket(p)
			return
		}
		ev := ln.pool.getEvent()
		ev.n, ev.kind, ev.node, ev.p = n, evDeliverNote, at, p
		ln.q.Defer(ev)
		return
	}
	if n.OnDeliver != nil {
		n.OnDeliver(at, p)
	}
	ln.pool.putPacket(p)
}

// enqueue places the packet on the egress port, starting transmission if
// the port is idle. Bytes refused here — link down or queue overflow — are
// charged to the port's drop accounting, so per-port loss is measurable
// rather than only the network-wide Dropped total.
func (n *Network) enqueue(ln *lane, at topo.NodeID, link topo.LinkID, p *packet.Packet) {
	l := n.G.Link(link)
	if l.From != at {
		n.drop(ln, at, p, packet.DropForeignLink)
		return
	}
	pt := n.portFor(link)
	size := int64(p.Wire())
	cls := qos.ClassOf(p)
	pt.offeredPkts++
	pt.offeredBytes += size
	if pt.tel != nil {
		pt.tel.offered[cls].Add(size)
	}
	if l.Down {
		n.refuse(ln, pt, l, p, size, packet.DropLinkDown)
		return
	}
	now := ln.q.Now()
	if !pt.wake && now >= pt.busyUntil {
		// Idle: nothing is queued or held (the port invariant), so the
		// scheduler only has to rule on this packet, not to store it.
		if !pt.sched.Pass(now, cls, p) {
			n.refuse(ln, pt, l, p, size, packet.DropQueueOverflow)
			return
		}
		n.transmit(ln, pt, p)
		return
	}
	if !pt.sched.Enqueue(now, cls, p) {
		n.refuse(ln, pt, l, p, size, packet.DropQueueOverflow)
		return
	}
	if !pt.wake {
		n.kick(ln, pt, pt.busyUntil)
	}
}

// refuse charges a packet the port turned away to its drop ledger.
func (n *Network) refuse(ln *lane, pt *port, l *topo.Link, p *packet.Packet, size int64, reason packet.DropReason) {
	pt.dropPkts++
	pt.dropBytes += size
	if pt.tel != nil {
		pt.tel.dropped[qos.ClassOf(p)].Add(size)
	}
	n.drop(ln, l.From, p, reason)
}

// kick books the port's wake-up: an evTxKick at the given instant.
func (n *Network) kick(ln *lane, pt *port, at sim.Time) {
	pt.wake = true
	ev := ln.pool.getEvent()
	ev.n, ev.kind, ev.ln, ev.pt = n, evTxKick, ln, pt
	ln.q.Post(at, ev)
}

// wakeUp runs the port's evTxKick: serve the next packet and, if that
// leaves a backlog behind the wire, book the next wake-up for the moment
// the wire frees — the second event a backlogged hop costs.
func (n *Network) wakeUp(ln *lane, pt *port) {
	pt.wake = false
	n.transmitNext(ln, pt)
	if !pt.wake && pt.sched.Len() > 0 {
		n.kick(ln, pt, pt.busyUntil)
	}
}

// transmitNext starts serializing the packet the shaper held back, or else
// the scheduler's next one. The caller guarantees the wire is free
// (now >= busyUntil, no wake-up pending).
func (n *Network) transmitNext(ln *lane, pt *port) {
	p := pt.pending
	pt.pending = nil
	if p == nil {
		p = pt.sched.Dequeue(ln.q.Now())
	}
	if p != nil {
		n.transmit(ln, pt, p)
	}
}

// transmit starts serializing p on a free wire, honouring the port shaper
// if one is installed, and launches it: the far-end arrival is posted now,
// at the instant the last bit will have propagated. ln is the lane of the
// shard owning the port's source node; all of the port's timers stay on it.
func (n *Network) transmit(ln *lane, pt *port, p *packet.Packet) {
	now := ln.q.Now()
	wire := p.Wire()
	if pt.shaper != nil {
		if d := pt.shaper.DelayUntilConform(now, wire); d > 0 {
			pt.pending = p
			n.kick(ln, pt, now+d)
			return
		}
		pt.shaper.Conforms(now, wire)
	}
	if pt.doomed {
		// This wake-up beat the previous packet's evTxDrop to the instant
		// they share: settle that loss first, as the drop would have, and
		// leave its event empty.
		lost := pt.doom.p
		pt.doom.p = nil
		n.txDrop(ln, pt, lost)
	}
	pt.settle(now)
	l := n.G.Link(pt.link)
	txTime := sim.Time(float64(wire*8) / l.Bandwidth * float64(sim.Second))
	pt.wireBytes = int64(wire)
	pt.busyUntil = now + txTime
	if l.Down {
		// Dequeued from a backlog onto a dead link: it occupies the wire
		// for its serialization time and is lost when the last bit leaves,
		// unless the link comes back first (linkChanged).
		n.doom(ln, pt, p)
		return
	}
	pt.fly = n.launch(ln, l, p, txTime+l.Delay)
}

// launch posts the packet's arrival at the far router d from now — the
// rest of its serialization plus the link's propagation delay — handing
// ownership across shards when the link is a cut edge (d is at least the
// link delay, which is at least the pair's lookahead bound).
func (n *Network) launch(ln *lane, l *topo.Link, p *packet.Packet, d sim.Time) *dpEvent {
	if n.cut(l) {
		dln := n.lanes[n.shardOf[l.To]]
		n.count(ln, ctrHandoffs, 1)
		// Cross-shard events are one-shot (pool nil): the destination
		// worker runs them, and recycling into the source shard's pool
		// from there would race. Handoffs are rare — only cut edges.
		ev := &dpEvent{n: n, kind: evArrive, ln: dln, node: l.To, link: l.ID, p: p}
		ln.q.Handoff(dln.q, d, ev)
		return ev
	}
	ev := ln.pool.getEvent()
	ev.n, ev.kind, ev.ln, ev.node, ev.link, ev.p = n, evArrive, ln, l.To, l.ID, p
	ln.q.PostAfter(d, ev)
	return ev
}

// cut reports whether the link's two ends live on different shards.
func (n *Network) cut(l *topo.Link) bool {
	return n.shardOf != nil && n.shardOf[l.From] != n.shardOf[l.To]
}

// doom books the loss of the packet being serialized on pt for the instant
// its last bit leaves: an evTxDrop at busyUntil now owns it.
func (n *Network) doom(ln *lane, pt *port, p *packet.Packet) {
	ev := ln.pool.getEvent()
	ev.n, ev.kind, ev.ln, ev.pt, ev.p = n, evTxDrop, ln, pt, p
	ln.q.Post(pt.busyUntil, ev)
	pt.doomed, pt.doom = true, ev
}

// txDrop settles a doomed transmission at t1, on the source shard: the
// bytes on the wire count as dropped and the packet is lost at the link's
// near end.
func (n *Network) txDrop(ln *lane, pt *port, p *packet.Packet) {
	size := pt.wireBytes
	pt.wireBytes, pt.doomed = 0, false
	n.refuse(ln, pt, n.G.Link(pt.link), p, size, packet.DropLinkDown)
}

// linkChanged is the topology's link-state hook (topo.Graph.SetDown). A
// link's state is sampled where the last bit leaves the port, at busyUntil:
// a packet still serializing when the link dies is doomed — its arrival is
// emptied and an evTxDrop at busyUntil takes the packet — and is reprieved
// with a fresh arrival if the link comes back before then; a packet already
// propagating is delivered. Link state only changes on the coordinator
// between segments (or on the serial engine), so this may touch the source
// shard's port, pool and clock, and the arrival pending on the destination
// shard.
func (n *Network) linkChanged(id topo.LinkID, down bool) {
	pt := n.port(id)
	l := n.G.Link(id)
	if pt == nil || down == pt.doomed {
		return
	}
	ln := n.laneOf(l.From)
	now := ln.q.Now()
	if now >= pt.busyUntil {
		return
	}
	if down {
		p := pt.fly.p
		pt.fly.p = nil
		if n.cut(l) {
			n.count(ln, ctrHandoffs, -1)
		}
		n.doom(ln, pt, p)
		return
	}
	p := pt.doom.p
	pt.doom.p = nil
	pt.doomed = false
	pt.fly = n.launch(ln, l, p, pt.busyUntil-now+l.Delay)
}

func (n *Network) drop(ln *lane, at topo.NodeID, p *packet.Packet, reason packet.DropReason) {
	n.count(ln, ctrDropped, 1)
	if n.shardOf != nil {
		if n.OnDrop == nil {
			ln.pool.putPacket(p)
			return
		}
		ev := ln.pool.getEvent()
		ev.n, ev.kind, ev.node, ev.p, ev.reason = n, evDropNote, at, p, reason
		ln.q.Defer(ev)
		return
	}
	if n.OnDrop != nil {
		n.OnDrop(at, p, reason)
	}
	ln.pool.putPacket(p)
}

// Run executes events until quiescence.
func (n *Network) Run() { n.E.Run() }

// RunUntil executes events up to the deadline.
func (n *Network) RunUntil(t sim.Time) { n.E.RunUntil(t) }

// PortQueue exposes the class queue of a link's port for occupancy stats.
func (n *Network) PortQueue(link topo.LinkID, c qos.Class) *qos.Queue {
	return n.portFor(link).sched.ClassQueue(c)
}

// LinkTxBytes returns the bytes serialized onto a directed link so far.
func (n *Network) LinkTxBytes(link topo.LinkID) int64 { return n.ledger(link).txBytes }

// ledger returns a port with its tx ledger settled as of now. Like every
// ledger read it belongs to the coordinator: between segments, or serial.
func (n *Network) ledger(link topo.LinkID) *port {
	pt := n.portFor(link)
	pt.settle(n.E.Now())
	return pt
}

// LinkOfferedBytes returns the bytes offered to a directed link's egress
// port so far (transmitted + dropped).
func (n *Network) LinkOfferedBytes(link topo.LinkID) int64 { return n.portFor(link).offeredBytes }

// LinkDroppedBytes returns the bytes a directed link's egress port refused
// (queue overflow or link down).
func (n *Network) LinkDroppedBytes(link topo.LinkID) int64 { return n.portFor(link).dropBytes }

// LinkDroppedPkts returns the packets a directed link's egress port refused.
func (n *Network) LinkDroppedPkts(link topo.LinkID) int64 { return n.portFor(link).dropPkts }

// CheckConservation verifies the per-port byte ledger on every port:
// every byte offered must be transmitted, dropped, still queued, held by
// the shaper, or mid-serialization — nothing lost, nothing double-counted —
// and the port invariant the idle pass-through in enqueue rests on: a packet
// queued or held implies a wake-up is booked. It returns an error naming the
// first offending port, or nil. Safe to call mid-run: in-flight bytes are
// tracked, not ignored.
func (n *Network) CheckConservation() error {
	for i := 0; i < n.G.NumLinks(); i++ {
		id := topo.LinkID(i)
		pt := n.port(id)
		if pt == nil {
			continue
		}
		pt.settle(n.E.Now())
		var queued int64
		if pt.sched != nil {
			// Dedupe shared queues (a FIFO serves every class) by pointer.
			seen := make(map[*qos.Queue]bool)
			for c := qos.Class(0); c < qos.NumClasses; c++ {
				if q := pt.sched.ClassQueue(c); q != nil && !seen[q] {
					seen[q] = true
					queued += int64(q.Bytes())
				}
			}
		}
		if pt.pending != nil {
			queued += int64(pt.pending.Wire())
		}
		if !pt.wake && (pt.pending != nil || (pt.sched != nil && pt.sched.Len() != 0)) {
			l := n.G.Link(id)
			return fmt.Errorf("netsim: port %s->%s has no wake-up booked for %d queued bytes (shaper holds one: %v)",
				n.G.Name(l.From), n.G.Name(l.To), queued, pt.pending != nil)
		}
		if got := pt.txBytes + pt.dropBytes + queued + pt.wireBytes; got != pt.offeredBytes {
			l := n.G.Link(id)
			return fmt.Errorf("netsim: port %s->%s byte ledger broken: offered=%d tx=%d drop=%d queued=%d wire=%d (sum=%d)",
				n.G.Name(l.From), n.G.Name(l.To), pt.offeredBytes, pt.txBytes, pt.dropBytes, queued, pt.wireBytes, got)
		}
	}
	return nil
}

// LinkUtilization returns the fraction of a link's capacity used over the
// elapsed virtual time (0 before any time has passed).
func (n *Network) LinkUtilization(link topo.LinkID) float64 {
	t := n.E.Now().Seconds()
	if t <= 0 {
		return 0
	}
	l := n.G.Link(link)
	return float64(n.ledger(link).txBytes*8) / (l.Bandwidth * t)
}
