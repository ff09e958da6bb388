// Checkpoint support for the event scheduler.
//
// The event queue holds Actions, which cannot be serialized as such. The
// snapshot architecture therefore splits pending work into two classes:
//
//   - *setup* events, scheduled before MarkSetup (topology construction,
//     pre-expanded chaos scripts, horizon-spanning scan series). A restore
//     rebuilds the scenario from its builder, which re-creates every setup
//     event with an identical (time, seq); the snapshot only records which
//     of them were still pending, by (shard, seq), and FilterPending kills
//     the rest.
//   - *dynamic* events, scheduled during the run, are self-describing
//     Actions: the package that owns the type (netsim's in-flight packet
//     events, trafgen's sources, core's control timers) encodes what it
//     needs to rebuild one, and a restore re-arms it with RestoreAction at
//     its original (time, seq), so the FIFO tie-break order — and therefore
//     the entire future of the run — is byte-identical to the uninterrupted
//     execution. A closure scheduled with Schedule/After has no such
//     identity; the walk reports it with a nil Act and a strict snapshot
//     refuses it.
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
	Act   Action // nil for closure events
	Setup bool   // scheduled before MarkSetup
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

// MarkSetup records the setup watermark on every scheduler: events with a
// lower sequence number were scheduled during scenario construction and are
// re-created by a rebuild. Call exactly once, after the builder finishes and
// before the first Run.
func (e *Engine) MarkSetup() {
	for _, q := range e.all {
		q.setupSeq = q.seq
	}
}

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
			pe := PendingEvent{Shard: q.id, At: x.at, Seq: x.seq, Act: x.act, Setup: x.seq < q.setupSeq}
			if _, closure := x.act.(funcAction); closure {
				pe.Act = nil
			}
			visit(pe)
		}
	}
}

// FilterPending removes every scheduled event for which keep returns false.
// A restore calls it on a freshly rebuilt engine to kill the setup events
// the original run had already executed by snapshot time.
func (e *Engine) FilterPending(keep func(shard int, seq uint64) bool) {
	for _, q := range e.all {
		q.q.filter(func(x heapEntry) bool { return keep(q.id, x.seq) })
	}
}

// RestoreAction re-arms a dynamic event with its original identity.
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
