// Checkpoint support for the event scheduler.
//
// Event heaps hold Go closures and pooled actions, neither of which can be
// serialized directly. The snapshot architecture therefore splits pending
// work into two classes:
//
//   - *setup* events, scheduled before MarkSetup (topology construction,
//     pre-expanded chaos scripts, horizon-spanning scan series). A restore
//     rebuilds the scenario from its builder, which re-creates every setup
//     event with an identical (time, seq); the snapshot only records which
//     of them were still pending, and FilterPending kills the rest.
//   - *dynamic* events, scheduled during the run. Closures must carry a Tag
//     (a small serializable identity registered by the scheduling
//     subsystem); typed Actions self-describe through per-package encoders.
//     A restore re-arms each with its original (time, seq) so the FIFO
//     tie-break order — and therefore the entire future of the run — is
//     byte-identical to the uninterrupted execution.
//
// Sequence counters, clocks, and executed counts restore explicitly;
// freelists are reconstructed empty (a recycled object is indistinguishable
// from a fresh one, so pooling stays invisible to the contract).
package sim

import "slices"

// Tag is the serializable identity of a dynamically scheduled closure. Kind
// selects a re-arm handler registered by the subsystem that scheduled it;
// A and B are handler-defined operands (an index into a creation-ordered
// table, a node pair, a drain ID). The zero Tag marks an untagged closure,
// which a strict snapshot refuses to serialize.
type Tag struct {
	Kind uint16
	A, B uint64
}

// GlobalBand is the PendingEvent shard index for the engine's own queue.
const GlobalBand = -1

// PendingEvent describes one live scheduled event during a snapshot walk.
type PendingEvent struct {
	Shard int // GlobalBand or a shard index
	At    Time
	Seq   uint64
	Tag   Tag
	Act   Action // nil for closure events
	Setup bool   // scheduled before MarkSetup
}

// ScheduleTagged is Schedule with a snapshot identity attached.
func (e *Engine) ScheduleTagged(at Time, tag Tag, fn func()) *Event {
	ev := e.Schedule(at, fn)
	ev.tag = tag
	return ev
}

// AfterTagged is After with a snapshot identity attached.
func (e *Engine) AfterTagged(d Time, tag Tag, fn func()) *Event {
	ev := e.After(d, fn)
	ev.tag = tag
	return ev
}

// ScheduleTagged is Schedule with a snapshot identity attached.
func (s *Shard) ScheduleTagged(at Time, tag Tag, fn func()) *Event {
	ev := s.Schedule(at, fn)
	ev.tag = tag
	return ev
}

// AfterTagged is After with a snapshot identity attached.
func (s *Shard) AfterTagged(d Time, tag Tag, fn func()) *Event {
	ev := s.After(d, fn)
	ev.tag = tag
	return ev
}

// MarkSetup records the setup watermark on every scheduler: events with a
// lower sequence number were scheduled during scenario construction and are
// re-created by a rebuild. Call exactly once, after the builder finishes and
// before the first Run.
func (e *Engine) MarkSetup() {
	e.setupSeq = e.seq
	if e.par != nil {
		for _, s := range e.par.shards {
			s.setupSeq = s.seq
		}
	}
}

// WalkPending visits every live scheduled event — the global band first,
// then each shard in index order, each scheduler's events in (time, seq)
// order. The walk must only run between segments (never from inside a
// draining shard).
func (e *Engine) WalkPending(visit func(PendingEvent)) {
	walkHeap(e.queue, GlobalBand, e.setupSeq, visit)
	if e.par != nil {
		// A handoff sent from outside a run (a packet injected onto a cut
		// edge between two RunUntil calls) waits in its slab for the next
		// barrier. Merge first — exactly what the next run's opening flush
		// would do — or the walk, and the checkpoint built on it, misses it.
		e.par.mergeHandoffs()
		for _, s := range e.par.shards {
			walkHeap(s.q, s.id, s.setupSeq, visit)
		}
	}
}

func walkHeap(h eventHeap, shard int, setupSeq uint64, visit func(PendingEvent)) {
	live := make([]heapEntry, 0, len(h))
	for _, x := range h {
		if !x.ev.dead {
			live = append(live, x)
		}
	}
	slices.SortFunc(live, func(a, b heapEntry) int {
		switch {
		case a.before(b):
			return -1
		case b.before(a):
			return 1
		}
		return 0
	})
	for _, x := range live {
		visit(PendingEvent{
			Shard: shard, At: x.at, Seq: x.seq, Tag: x.ev.tag,
			Act: x.ev.act, Setup: x.seq < setupSeq,
		})
	}
}

// FilterPending removes every scheduled event for which keep returns false.
// A restore calls it on a freshly rebuilt engine to kill the setup events
// the original run had already executed (or cancelled) by snapshot time.
func (e *Engine) FilterPending(keep func(shard int, seq uint64) bool) {
	e.queue = filterHeap(e.queue, GlobalBand, keep)
	if e.par != nil {
		for _, s := range e.par.shards {
			s.q = filterHeap(s.q, s.id, keep)
		}
	}
}

func filterHeap(h eventHeap, shard int, keep func(int, uint64) bool) eventHeap {
	out := h[:0]
	for _, x := range h {
		if x.ev.dead || !keep(shard, x.seq) {
			continue
		}
		out = append(out, x)
	}
	// Trailing slots keep stale pointers otherwise.
	for i := len(out); i < len(h); i++ {
		h[i] = heapEntry{}
	}
	// Pop order depends only on (at, seq), not array layout.
	out.init()
	return out
}

// RestoreEvent re-arms a dynamic closure event with its original identity.
// The caller resolves tag to fn through its re-arm registry.
func (e *Engine) RestoreEvent(shard int, at Time, seq uint64, tag Tag, fn func()) {
	ev := &Event{at: at, seq: seq, tag: tag, fn: fn}
	e.pushRestored(shard, ev)
}

// RestoreAction re-arms a dynamic action event with its original identity.
func (e *Engine) RestoreAction(shard int, at Time, seq uint64, act Action) {
	ev := &Event{at: at, seq: seq, act: act}
	e.pushRestored(shard, ev)
}

func (e *Engine) pushRestored(shard int, ev *Event) {
	if shard == GlobalBand {
		e.queue.push(ev)
		return
	}
	e.par.shards[shard].q.push(ev)
}

// RestoreClock overwrites a scheduler's clock: the engine clock for
// GlobalBand, a shard clock otherwise.
func (e *Engine) RestoreClock(shard int, now Time) {
	if shard == GlobalBand {
		e.now = now
		return
	}
	e.par.shards[shard].now = now
}

// RestoreSeq overwrites a scheduler's sequence counter so events scheduled
// after the restore continue the original numbering (and therefore the
// original FIFO tie-breaks).
func (e *Engine) RestoreSeq(shard int, seq uint64) {
	if shard == GlobalBand {
		e.seq = seq
		return
	}
	e.par.shards[shard].seq = seq
}

// RestoreExecuted overwrites a scheduler's executed-event count.
func (e *Engine) RestoreExecuted(shard int, n uint64) {
	if shard == GlobalBand {
		e.events = n
		return
	}
	e.par.shards[shard].executed = n
}

// Seq returns a scheduler's next sequence number.
func (e *Engine) Seq(shard int) uint64 {
	if shard == GlobalBand {
		return e.seq
	}
	return e.par.shards[shard].seq
}

// ExecutedOn returns a scheduler's executed-event count.
func (e *Engine) ExecutedOn(shard int) uint64 {
	if shard == GlobalBand {
		return e.events
	}
	return e.par.shards[shard].executed
}

// ClockOf returns a scheduler's current time without barrier adjustment.
func (e *Engine) ClockOf(shard int) Time {
	if shard == GlobalBand {
		return e.now
	}
	return e.par.shards[shard].now
}

// Schedulers returns the walkable scheduler indices: the global band plus
// every shard.
func (e *Engine) Schedulers() []int {
	ids := []int{GlobalBand}
	if e.par != nil {
		for _, s := range e.par.shards {
			ids = append(ids, s.id)
		}
	}
	return ids
}
