// Checkpoint support for the data plane: port state (byte ledgers, shaper
// buckets, held packets, scheduler queues) and the in-flight dpEvents
// pending in the engine's heaps. Packets restore through the owning shard's
// freelist so a resumed run recirculates its working set exactly like an
// uninterrupted one; the freelists themselves are rebuilt empty, which the
// determinism contract allows because a recycled packet is indistinguishable
// from a fresh one.
package netsim

import (
	"cmp"
	"slices"

	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

// OwnsAction reports whether a pending action belongs to the data plane
// (an in-flight packet event). The core orchestrator uses it to classify
// pending events during a snapshot: data-plane events are walked and
// re-armed by this package's State, not by core.
func (n *Network) OwnsAction(act sim.Action) bool {
	_, ok := act.(*dpEvent)
	return ok
}

// State walks the network-wide counters, every port, and every pending
// data-plane event. Save only between segments (the same rule as
// WalkPending). A load restores port state and re-arms the in-flight events
// with their original (time, seq) identities; the network must be a fresh
// scenario rebuild with identical topology, schedulers, and sharding.
func (n *Network) State(c *snapshot.Codec) {
	snapshot.Int(c, &n.Injected)
	snapshot.Int(c, &n.Delivered)
	snapshot.Int(c, &n.Dropped)
	snapshot.Int(c, &n.handoffs)

	if !c.FixedLen(len(n.ports), 1, "ports") {
		return
	}
	for _, pt := range n.ports {
		if c.Same(pt != nil, "port") {
			n.portState(c, pt)
		}
	}
	n.inflightState(c)
}

func (n *Network) portState(c *snapshot.Codec, pt *port) {
	var alloc qos.PacketAlloc // a load's packets come from the port's own lane
	if c.Loading() {
		alloc = n.laneOf(n.G.Link(pt.link).From).pool.getPacket
		pt.doomed, pt.fly, pt.doom = false, nil, nil // re-linked from the in-flight events
	} else {
		// Settled first, so the record is the same whether or not anything
		// read the ledger since the port's last start.
		pt.settle(n.E.Now())
	}
	snapshot.Int(c, &pt.busyUntil)
	c.Bool(&pt.wake)
	snapshot.Int(c, &pt.txBytes)
	snapshot.Int(c, &pt.txPkts)
	snapshot.Int(c, &pt.wireBytes)
	snapshot.Int(c, &pt.offeredBytes)
	snapshot.Int(c, &pt.offeredPkts)
	snapshot.Int(c, &pt.dropBytes)
	snapshot.Int(c, &pt.dropPkts)
	if c.Same(pt.shaper != nil, "shaper") {
		pt.shaper.State(c)
	}
	if c.Has(pt.pending != nil) {
		if c.Loading() {
			pt.pending = alloc()
		}
		packet.State(c, pt.pending)
	} else {
		pt.pending = nil
	}
	if c.Same(pt.sched != nil, "scheduler") {
		qos.SchedulerState(c, pt.sched, alloc)
	}
}

// inflightState walks everything the data plane has booked in the heaps, in
// canonical (shard, seq) order so the encoding does not depend on heap
// layout history. An event is eight varints and the packet flag at least.
func (n *Network) inflightState(c *snapshot.Codec) {
	var inflight []sim.PendingEvent
	if !c.Loading() {
		n.E.WalkPending(func(pe sim.PendingEvent) {
			if n.OwnsAction(pe.Act) {
				inflight = append(inflight, pe)
			}
		})
		slices.SortFunc(inflight, func(a, b sim.PendingEvent) int {
			if a.Shard != b.Shard {
				return cmp.Compare(a.Shard, b.Shard)
			}
			return cmp.Compare(a.Seq, b.Seq)
		})
	}
	for i, ne := 0, c.Len(len(inflight), 9); i < ne && c.Err() == nil; i++ {
		var pe sim.PendingEvent
		var ev *dpEvent
		if c.Loading() {
			ev = &dpEvent{n: n}
		} else {
			pe = inflight[i]
			ev = pe.Act.(*dpEvent)
		}
		snapshot.Int(c, &pe.Shard)
		snapshot.Int(c, &pe.At)
		snapshot.Uint(c, &pe.Seq)
		snapshot.Uint(c, &ev.kind)
		snapshot.Uint(c, &ev.reason)
		snapshot.Int(c, &ev.node)
		snapshot.Int(c, &ev.link)
		ptLink := topo.LinkID(-1)
		if ev.pt != nil {
			ptLink = ev.pt.link
		}
		snapshot.Int(c, &ptLink)
		hasPkt := c.Has(ev.p != nil)
		if c.Loaded() {
			n.placeEvent(c, ev, pe.Shard, ptLink)
		}
		if hasPkt && c.Err() == nil {
			if c.Loading() {
				ev.p = ev.pool.getPacket()
			}
			packet.State(c, ev.p)
		}
		if c.Loaded() {
			if hasPkt {
				n.relink(ev, pe.At)
			}
			n.E.RestoreAction(pe.Shard, pe.At, pe.Seq, ev)
		}
	}
}

// placeEvent resolves a loaded event's lane, pool and port against the
// rebuilt network, refusing what that network does not have.
func (n *Network) placeEvent(c *snapshot.Codec, ev *dpEvent, shard int, ptLink topo.LinkID) {
	switch {
	case shard == sim.GlobalBand && n.shardOf == nil:
		ev.ln = n.lanes[0]
	case shard >= 0 && shard < len(n.lanes) && n.shardOf != nil:
		ev.ln = n.lanes[shard]
	default:
		c.Mismatch("in-flight event on shard %d, scenario is not sharded that way", shard)
		return
	}
	ev.pool = &ev.ln.pool
	if nl := topo.LinkID(n.G.NumLinks()); ev.link >= nl || ptLink >= nl {
		c.Corrupt("in-flight event on link %d/%d, scenario has %d", ev.link, ptLink, nl)
		return
	}
	if ptLink >= 0 {
		ev.pt = n.portFor(ptLink)
	}
}

// relink re-attaches the event that holds the packet a port is serializing,
// for linkChanged: a loaded evTxDrop is that port's doom, and the arrival
// due exactly one propagation delay after busyUntil its fly.
func (n *Network) relink(ev *dpEvent, at sim.Time) {
	switch ev.kind {
	case evTxDrop:
		if ev.pt != nil {
			ev.pt.doomed, ev.pt.doom = true, ev
		}
	case evArrive:
		if ev.link < 0 {
			break
		}
		if pt := n.port(ev.link); pt != nil && at == pt.busyUntil+n.G.Link(ev.link).Delay {
			pt.fly = ev
		}
	}
}
