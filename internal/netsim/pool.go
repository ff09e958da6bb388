// Per-shard object pools for the data plane: packets and the events that
// carry them between hops. Everything here exists so the steady-state
// packet path performs zero heap allocations — the simulated analogue of a
// line card's preallocated buffer ring.
//
// Pools are strictly per shard, one per lane (lane 0 is the serial engine's)
// and follow the same ownership rules as every other shard structure: the
// owning worker during a segment, the coordinator between segments. A
// deterministic freelist — never sync.Pool — keeps object reuse order a
// pure function of the event schedule, which is what lets pooling stay
// invisible to the serial-vs-parallel equivalence digests.
package netsim

import (
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
)

// dpEvent kinds. One pooled struct stands in for all of the hot path's
// former closures; the kind selects the continuation.
const (
	evArrive      uint8 = iota // serialization + propagation done: process at node via link
	evEnqueue                  // hop/processing delay done: enqueue on link
	evTxKick                   // pt's wake-up: the wire freed behind a backlog, or the shaper conforms
	evTxDrop                   // the link died under the packet serializing on pt: lose it at t1
	evDeliverNote              // deferred delivery notification + recycle
	evDropNote                 // deferred drop notification + recycle
)

// lane is one shard's data-plane context — its scheduler, its counter cell
// index and its freelists — resolved once when an event is created. The
// serial engine is lane 0, whose scheduler is the engine's own queue.
type lane struct {
	q    *sim.Queue
	id   int
	pool dpPool
}

// dpEvent is the pooled sim.Action for every data-plane continuation.
// A pointer-to-dpEvent stored in the Action interface does not allocate.
type dpEvent struct {
	n      *Network
	pool   *dpPool // recycle target; nil for one-shot cross-shard events
	kind   uint8
	reason packet.DropReason
	ln     *lane // where the continuation runs
	node   topo.NodeID
	link   topo.LinkID
	pt     *port
	p      *packet.Packet // nil on an emptied evArrive/evTxDrop (see linkChanged)
}

// Run dispatches the continuation. The event recycles itself *before*
// running: no reference escapes, and the continuation may immediately draw
// a fresh event from the same pool (often this very one).
func (ev *dpEvent) Run() {
	n, pl := ev.n, ev.pool
	kind, ln, node, link, pt, p, reason :=
		ev.kind, ev.ln, ev.node, ev.link, ev.pt, ev.p, ev.reason
	if pl != nil {
		pl.putEvent(ev)
	}
	switch kind {
	case evArrive:
		if p != nil {
			n.process(ln, node, p, link)
		}
	case evEnqueue:
		n.enqueue(ln, node, link, p)
	case evTxKick:
		n.wakeUp(ln, pt)
	case evTxDrop:
		if p != nil {
			n.txDrop(ln, pt, p)
		}
	case evDeliverNote:
		// Runs on the coordinator at a barrier: hook first, then recycle —
		// the hook must see the packet intact.
		if n.OnDeliver != nil {
			n.OnDeliver(node, p)
		}
		pl.putPacket(p)
	case evDropNote:
		if n.OnDrop != nil {
			n.OnDrop(node, p, reason)
		}
		pl.putPacket(p)
	}
}

// dpPool is one shard's freelists. disabled (the E17 ablation switch)
// turns both lists into pass-throughs so every packet and event hits the
// garbage collector, quantifying what pooling buys.
type dpPool struct {
	events   []*dpEvent
	pkts     []*packet.Packet
	disabled bool
}

func (pl *dpPool) getEvent() *dpEvent {
	if n := len(pl.events); n > 0 {
		ev := pl.events[n-1]
		pl.events[n-1] = nil
		pl.events = pl.events[:n-1]
		return ev
	}
	return &dpEvent{pool: pl}
}

func (pl *dpPool) putEvent(ev *dpEvent) {
	if pl.disabled {
		return
	}
	*ev = dpEvent{pool: pl}
	pl.events = append(pl.events, ev)
}

func (pl *dpPool) getPacket() *packet.Packet {
	if n := len(pl.pkts); n > 0 {
		p := pl.pkts[n-1]
		pl.pkts[n-1] = nil
		pl.pkts = pl.pkts[:n-1]
		return p
	}
	if pl.disabled {
		return &packet.Packet{}
	}
	p := &packet.Packet{}
	p.SetPooled()
	return p
}

func (pl *dpPool) putPacket(p *packet.Packet) {
	if p == nil || !p.Pooled() || pl.disabled {
		return
	}
	p.Reset()
	pl.pkts = append(pl.pkts, p)
}

// NewPacket returns a packet drawn from the freelist of the node's owning
// shard (the serial pool when unsharded). Traffic generators use it so the
// steady state recirculates a small working set of packets instead of
// allocating one per send. The packet is recycled automatically when the
// network delivers or drops it; callers must not retain the pointer past
// that point. Probes and tests that outlive delivery should build a plain
// &packet.Packet{} instead.
func (n *Network) NewPacket(at topo.NodeID) *packet.Packet {
	return n.laneOf(at).pool.getPacket()
}

// DisablePooling turns packet/event recycling off (E17's GC-pressure
// ablation). Call before traffic starts.
func (n *Network) DisablePooling() {
	for _, ln := range n.lanes {
		ln.pool.disabled = true
	}
}
