// Checkpoint support for the data plane: port state (byte ledgers, shaper
// buckets, held packets, scheduler queues) and the in-flight dpEvents
// pending in the engine's heaps. Packets restore through the owning shard's
// freelist so a resumed run recirculates its working set exactly like an
// uninterrupted one; the freelists themselves are rebuilt empty, which the
// determinism contract allows because a recycled packet is indistinguishable
// from a fresh one.
package netsim

import (
	"fmt"
	"sort"

	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

// OwnsAction reports whether a pending action belongs to the data plane
// (an in-flight packet event). The core orchestrator uses it to classify
// pending events during a snapshot: data-plane events are serialized and
// re-armed by this package's SaveState/LoadState, not by core.
func (n *Network) OwnsAction(act sim.Action) bool {
	_, ok := act.(*dpEvent)
	return ok
}

// SaveState serializes the network-wide counters, every port, and every
// pending data-plane event. Call only between segments (the same rule as
// WalkPending).
func (n *Network) SaveState(w *snapshot.Writer) {
	w.I64(int64(n.Injected))
	w.I64(int64(n.Delivered))
	w.I64(int64(n.Dropped))
	w.I64(n.handoffs)

	w.U64(uint64(len(n.ports)))
	for _, pt := range n.ports {
		w.Bool(pt != nil)
		if pt == nil {
			continue
		}
		// Settled first, so the record is the same whether or not anything
		// read the ledger since the port's last start.
		pt.settle(n.E.Now())
		w.I64(int64(pt.busyUntil))
		w.Bool(pt.wake)
		w.I64(pt.txBytes)
		w.I64(pt.txPkts)
		w.I64(pt.wireBytes)
		w.I64(pt.offeredBytes)
		w.I64(pt.offeredPkts)
		w.I64(pt.dropBytes)
		w.I64(pt.dropPkts)
		w.Bool(pt.shaper != nil)
		if pt.shaper != nil {
			pt.shaper.SaveState(w)
		}
		w.Bool(pt.pending != nil)
		if pt.pending != nil {
			packet.Save(w, pt.pending)
		}
		w.Bool(pt.sched != nil)
		if pt.sched != nil {
			qos.SaveScheduler(w, pt.sched)
		}
	}

	// In-flight events: everything the data plane has booked in the heaps,
	// in canonical (shard, seq) order so the encoding does not depend on
	// heap layout history.
	var inflight []sim.PendingEvent
	n.E.WalkPending(func(pe sim.PendingEvent) {
		if _, ok := pe.Act.(*dpEvent); ok {
			inflight = append(inflight, pe)
		}
	})
	sort.Slice(inflight, func(i, j int) bool {
		if inflight[i].Shard != inflight[j].Shard {
			return inflight[i].Shard < inflight[j].Shard
		}
		return inflight[i].Seq < inflight[j].Seq
	})
	w.U64(uint64(len(inflight)))
	for _, pe := range inflight {
		ev := pe.Act.(*dpEvent)
		w.I64(int64(pe.Shard))
		w.I64(int64(pe.At))
		w.U64(pe.Seq)
		w.U64(uint64(ev.kind))
		w.U64(uint64(ev.reason))
		w.I64(int64(ev.node))
		w.I64(int64(ev.link))
		ptLink := topo.LinkID(-1)
		if ev.pt != nil {
			ptLink = ev.pt.link
		}
		w.I64(int64(ptLink))
		w.Bool(ev.p != nil)
		if ev.p != nil {
			packet.Save(w, ev.p)
		}
	}
}

// LoadState restores port state and re-arms the in-flight events with their
// original (time, seq) identities. The network must be a fresh scenario
// rebuild with identical topology, schedulers, and sharding.
func (n *Network) LoadState(r *snapshot.Reader) error {
	n.Injected = int(r.I64())
	n.Delivered = int(r.I64())
	n.Dropped = int(r.I64())
	n.handoffs = r.I64()

	np := r.Count(1)
	if r.Err() != nil {
		return r.Err()
	}
	if np != len(n.ports) {
		return fmt.Errorf("%w: %d ports in snapshot, %d in scenario", snapshot.ErrMismatch, np, len(n.ports))
	}
	for i := 0; i < np; i++ {
		present := r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		pt := n.ports[i]
		if present != (pt != nil) {
			return fmt.Errorf("%w: port %d present in snapshot=%v, scenario=%v", snapshot.ErrMismatch, i, present, pt != nil)
		}
		if pt == nil {
			continue
		}
		pool := &n.laneOf(n.G.Link(pt.link).From).pool
		alloc := pool.getPacket
		pt.busyUntil = sim.Time(r.I64())
		pt.wake = r.Bool()
		pt.doomed, pt.fly, pt.doom = false, nil, nil // re-linked from the in-flight events below
		pt.txBytes = r.I64()
		pt.txPkts = r.I64()
		pt.wireBytes = r.I64()
		pt.offeredBytes = r.I64()
		pt.offeredPkts = r.I64()
		pt.dropBytes = r.I64()
		pt.dropPkts = r.I64()
		hasShaper := r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		if hasShaper != (pt.shaper != nil) {
			return fmt.Errorf("%w: port %d shaper in snapshot=%v, scenario=%v", snapshot.ErrMismatch, i, hasShaper, pt.shaper != nil)
		}
		if pt.shaper != nil {
			if err := pt.shaper.LoadState(r); err != nil {
				return err
			}
		}
		pt.pending = nil
		if r.Bool() {
			p := alloc()
			if err := packet.Load(r, p); err != nil {
				return err
			}
			pt.pending = p
		}
		hasSched := r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		if hasSched != (pt.sched != nil) {
			return fmt.Errorf("%w: port %d scheduler in snapshot=%v, scenario=%v", snapshot.ErrMismatch, i, hasSched, pt.sched != nil)
		}
		if pt.sched != nil {
			if err := qos.LoadScheduler(r, pt.sched, alloc); err != nil {
				return err
			}
		}
	}

	ne := r.Count(8)
	for i := 0; i < ne; i++ {
		shard := int(r.I64())
		at := sim.Time(r.I64())
		seq := r.U64()
		kind := uint8(r.U64())
		reason := packet.DropReason(r.U64())
		node := topo.NodeID(r.I64())
		link := topo.LinkID(r.I64())
		ptLink := topo.LinkID(r.I64())
		hasPkt := r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		var ln *lane
		switch {
		case shard == sim.GlobalBand && n.shardOf == nil:
			ln = n.lanes[0]
		case shard >= 0 && shard < len(n.lanes) && n.shardOf != nil:
			ln = n.lanes[shard]
		default:
			return fmt.Errorf("%w: in-flight event on shard %d, scenario is not sharded that way", snapshot.ErrMismatch, shard)
		}
		ev := &dpEvent{n: n, pool: &ln.pool, kind: kind, reason: reason, ln: ln, node: node, link: link}
		if ptLink >= 0 {
			ev.pt = n.portFor(ptLink)
		}
		if hasPkt {
			p := ln.pool.getPacket()
			if err := packet.Load(r, p); err != nil {
				return err
			}
			ev.p = p
			// Re-link the event that holds the packet a port is serializing,
			// for linkChanged: a loaded evTxDrop is that port's doom, and the
			// arrival due exactly one propagation delay after busyUntil its
			// fly.
			switch kind {
			case evTxDrop:
				if ev.pt != nil {
					ev.pt.doomed, ev.pt.doom = true, ev
				}
			case evArrive:
				if link < 0 {
					break
				}
				if pt := n.port(link); pt != nil && at == pt.busyUntil+n.G.Link(link).Delay {
					pt.fly = ev
				}
			}
		}
		n.E.RestoreAction(shard, at, seq, ev)
	}
	return r.Err()
}
