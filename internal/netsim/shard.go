// Data-plane sharding: the network's nodes are partitioned across the
// engine's shard clocks so packet events run in parallel between barriers.
//
// Ownership rules that keep the hot path race-free without locks:
//
//   - every router, egress port, queue, and per-port telemetry counter is
//     owned by the shard of the node it hangs off, and only that shard's
//     worker touches it during a segment;
//   - a packet crossing a shard boundary travels through sim.Queue.Handoff,
//     which transfers ownership at the barrier (the propagation delay of a
//     cross-shard link must be at least the engine's lookahead quantum);
//   - network-wide counters (Injected/Delivered/Dropped) accumulate in
//     per-shard telemetry cells merged at each barrier;
//   - delivery and drop notifications are deferred to the barrier and
//     dispatched in deterministic (time, shard, sequence) order, so the
//     control plane's hooks (flow stats, SLA watcher, AIMD feedback) run
//     on one goroutine with the engine clock set to the event's time.
package netsim

import (
	"fmt"

	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
	"mplsvpn/internal/topo"
)

// Accumulator counter indices for the network-wide tallies.
const (
	ctrInjected = iota
	ctrDelivered
	ctrDropped
	ctrHandoffs
	numShardCtrs
)

// SetSharding partitions the network's nodes across the engine's shards.
// assign maps every node to a shard index in [0, e.NumShards()). The engine
// must already be sharded (sim.Engine.EnableShards), every cross-shard
// link's propagation delay must be at least the engine's lookahead quantum,
// and the topology must be final: ports for every link are created here so
// the hot path never mutates shared maps.
func (n *Network) SetSharding(assign []int) error {
	if !n.E.Sharded() {
		return fmt.Errorf("netsim: SetSharding requires a sharded engine (call EnableShards first)")
	}
	if n.shardOf != nil {
		return fmt.Errorf("netsim: SetSharding called twice")
	}
	if len(assign) != n.G.NumNodes() {
		return fmt.Errorf("netsim: assignment covers %d nodes, topology has %d", len(assign), n.G.NumNodes())
	}
	shards := n.E.NumShards()
	quantum := n.E.Quantum()
	for node, s := range assign {
		if s < 0 || s >= shards {
			return fmt.Errorf("netsim: node %d assigned to shard %d, engine has %d", node, s, shards)
		}
	}
	for i := 0; i < n.G.NumLinks(); i++ {
		l := n.G.Link(topo.LinkID(i))
		if assign[l.From] == assign[l.To] {
			continue
		}
		// The legality floor is per pair: a cross-shard packet must not be
		// able to arrive before the destination's segment bound, which the
		// engine derives from exactly this bound. With no matrix installed
		// every pair bound is the global quantum and this reduces to the
		// classic check.
		if bound := n.E.PairLookahead(assign[l.From], assign[l.To]); l.Delay < bound {
			return fmt.Errorf("netsim: cross-shard link %s->%s delay %v below pair lookahead bound %v (shard %d -> %d, global quantum %v)",
				n.G.Name(l.From), n.G.Name(l.To), l.Delay, bound, assign[l.From], assign[l.To], quantum)
		}
	}
	// Materialize every port up front: the per-link map must be read-only
	// while workers run.
	for i := 0; i < n.G.NumLinks(); i++ {
		n.portFor(topo.LinkID(i))
	}
	n.shardOf = assign
	// One lane per shard, replacing the serial one. Any packets already
	// drawn from the serial pool stay valid — recycle routes by the lane a
	// packet ends its journey on, not by origin.
	disabled := n.lanes[0].pool.disabled
	n.lanes = make([]*lane, shards)
	for i := range n.lanes {
		n.lanes[i] = &lane{q: n.E.Queue(i), id: i, pool: dpPool{disabled: disabled}}
	}
	n.acc = telemetry.NewShardAccumulator(shards, numShardCtrs)
	n.E.OnBarrier(n.mergeShardCounters)
	return nil
}

// Sharded reports whether the data plane is partitioned.
func (n *Network) Sharded() bool { return n.shardOf != nil }

// ShardOf returns the shard owning a node, or -1 when serial.
func (n *Network) ShardOf(node topo.NodeID) int {
	if n.shardOf == nil {
		return -1
	}
	return n.shardOf[node]
}

// mustShard returns the shard owning a node, panicking with the actual
// contract violation when the node postdates the sharding assignment —
// the raw index-out-of-range this replaces pointed at the slice access,
// not at the AddPE/AddSite call that arrived after SetSharding.
func (n *Network) mustShard(node topo.NodeID) int {
	if int(node) >= len(n.shardOf) {
		panic(fmt.Sprintf("netsim: node %d added after SetSharding (assignment covers %d nodes); sharding requires a final topology",
			node, len(n.shardOf)))
	}
	return n.shardOf[node]
}

// Handoffs returns the number of packets that crossed a shard boundary.
func (n *Network) CrossShardHandoffs() int64 { return n.handoffs }

// SourceClock returns the scheduler a traffic source attached at node must
// schedule on: the owning shard's queue when sharded, the engine's own
// when serial. Generators that pace themselves (CBR, Poisson, OnOff) use
// this so their injections run inside the node's shard.
func (n *Network) SourceClock(node topo.NodeID) *sim.Queue {
	return n.laneOf(node).q
}

// laneOf returns the lane owning a node.
func (n *Network) laneOf(node topo.NodeID) *lane {
	if n.shardOf == nil {
		return n.lanes[0]
	}
	return n.lanes[n.mustShard(node)]
}

// count bumps a network-wide tally: directly when serial, through the
// lane's accumulator cell when parallel.
func (n *Network) count(ln *lane, ctr int, delta int64) {
	if n.acc == nil {
		switch ctr {
		case ctrInjected:
			n.Injected += int(delta)
		case ctrDelivered:
			n.Delivered += int(delta)
		case ctrDropped:
			n.Dropped += int(delta)
		case ctrHandoffs:
			n.handoffs += delta
		}
		return
	}
	n.acc.Add(ln.id, ctr, delta)
}

// mergeShardCounters folds the per-shard cells into the public totals at
// each barrier.
func (n *Network) mergeShardCounters() {
	n.acc.Drain(func(c int, total int64) {
		switch c {
		case ctrInjected:
			n.Injected += int(total)
		case ctrDelivered:
			n.Delivered += int(total)
		case ctrDropped:
			n.Dropped += int(total)
		case ctrHandoffs:
			n.handoffs += total
		}
	})
}
