// Checkpoint support for the event scheduler.
//
// The event queue holds Actions, which cannot be serialized as such, so
// every event a checkpoint carries is a self-describing Action: the package
// that owns the type (netsim's in-flight packet events, trafgen's sources
// and the other registered actions, core's control timers) encodes what it
// needs to rebuild one. A restore rebuilds the scenario from its builder,
// empties the rebuilt queues with DropPending and re-arms every event the
// checkpoint holds with RestoreAction at its original (time, seq), so the
// FIFO tie-break order — and therefore the entire future of the run — is
// byte-identical to the uninterrupted execution. An action no package
// describes has no such identity, and a strict snapshot refuses it by type.
//
// Sequence counters, clocks, and executed counts restore explicitly. Every
// accessor here takes a scheduler index — GlobalBand or a shard — and goes
// through Engine.Queue: the band and the shards are one type.
package sim

// GlobalBand is the scheduler index of the engine's own queue.
const GlobalBand = -1

// PendingEvent describes one scheduled event during a snapshot walk.
type PendingEvent struct {
	Shard int // GlobalBand or a shard index
	At    Time
	Seq   uint64
	Act   Action
}

// Queue returns the scheduler with the given index: the engine's own queue
// for GlobalBand, shard i's otherwise.
func (e *Engine) Queue(shard int) *Queue { return e.all[shard+1] }

// Schedulers returns the walkable scheduler indices: the global band plus
// every shard.
func (e *Engine) Schedulers() []int {
	ids := make([]int, len(e.all))
	for i, q := range e.all {
		ids[i] = q.id
	}
	return ids
}

// MarkSetup does nothing: a restore re-arms every pending event from the
// checkpoint, so no event needs marking as one the rebuild re-creates. It
// is kept only because the benchmark harness calls it.
func (e *Engine) MarkSetup() {}

// WalkPending visits every scheduled event — the global band first, then
// each shard in index order, each scheduler's events in (time, seq) order.
// The walk must only run between segments (never from inside a draining
// shard).
func (e *Engine) WalkPending(visit func(PendingEvent)) {
	if e.par != nil {
		// A handoff sent from outside a run (a packet injected onto a cut
		// edge between two RunUntil calls) waits in its slab for the next
		// barrier. Merge first — exactly what the next run's opening flush
		// would do — or the walk, and the checkpoint built on it, misses it.
		e.par.mergeHandoffs()
	}
	for _, q := range e.all {
		for _, x := range q.q.sorted() {
			visit(PendingEvent{Shard: q.id, At: x.at, Seq: x.seq, Act: x.act})
		}
	}
}

// DropPending empties every scheduler, handoffs waiting for a barrier
// included. A restore calls it once on a freshly rebuilt engine, before it
// re-arms the events the checkpoint holds.
func (e *Engine) DropPending() {
	if e.par != nil {
		e.par.mergeHandoffs()
	}
	for _, q := range e.all {
		q.q = eventQueue{base: q.q.base}
	}
}

// RestoreAction arms act at its original identity (at, seq): a restored
// event, or a periodic action re-arming under its first seq.
func (e *Engine) RestoreAction(shard int, at Time, seq uint64, act Action) {
	e.Queue(shard).q.push(heapEntry{at, seq, act})
}

// Counters returns the queue's raw clock (no barrier adjustment), its next
// sequence number and its executed-event count: the scheduler state a
// checkpoint carries beside the pending events.
func (q *Queue) Counters() (now Time, seq, executed uint64) {
	return q.now, q.seq, q.executed
}

// RestoreCounters overwrites what Counters reports, so events scheduled
// after a restore continue the original numbering (and therefore the
// original FIFO tie-breaks).
func (q *Queue) RestoreCounters(now Time, seq, executed uint64) {
	q.now, q.seq, q.executed = now, seq, executed
}
