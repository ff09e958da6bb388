// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event queue indexed by time (wheel.go: a wheel of
// microsecond buckets for what is due within 4 ms, a 4-ary value-typed heap,
// heap.go, for the rest) with stable FIFO ordering for simultaneous events,
// and a seeded random number generator.
//
// There is one scheduler type, Queue: a clock, the pending events and a
// sequence counter. An event is an Action and the (time, sequence) pair it
// was scheduled with, held by value in the queue; it runs once, at its time,
// and cannot be cancelled — a component that must call work off empties the
// action it posted and lets the event fire as a no-op. Post and PostAfter
// are the only ways to schedule one. The engine owns one Queue and forwards
// Now, Post and PostAfter to it.
//
// The engine is single-threaded by default. Determinism — the property that
// a given seed reproduces a run exactly — is what makes the experiment
// harness in this repository trustworthy. For large topologies the engine
// can instead be switched to the sharded parallel backend (EnableShards, see
// shard.go): every shard is one more Queue, the engine's own becomes the
// global band, and exact determinism is preserved — same-seed runs are
// byte-identical for any worker count.
package sim

import (
	"fmt"
	"time"
)

// Time is a virtual timestamp measured in nanoseconds from the start of the
// simulation. It deliberately mirrors time.Duration so the two convert
// freely.
type Time int64

// Common time unit helpers.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts t to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the virtual time like a time.Duration.
func (t Time) String() string { return time.Duration(t).String() }

// Queue is the scheduler: a virtual clock, the pending events and the
// sequence counter that orders simultaneous ones FIFO. The engine's own
// queue (the global band once shards are enabled) and every shard are this
// one type; the shard-only fields stay zero on the band.
type Queue struct {
	id       int // GlobalBand, or the shard's index
	eng      *Engine
	now      Time
	q        eventQueue
	seq      uint64
	executed uint64 // for diagnostics
	clamped  uint64 // past timestamps moved up to the clock (see Post)

	limit    Time // current segment boundary, set by the coordinator
	draining bool // true only while the owning worker drains a segment

	outTo  [][]handoffMsg // per-destination cross-shard slabs for the barrier
	notes  []noteMsg      // deferred notifications, retained in emit order
	noteLo int            // dispatch cursor into notes (entries below are done)
}

// atBarrier reports whether q is a shard used from outside its own segment:
// by a barrier callback, a global-band event, or between runs. The two
// rules that differ between the band and a shard both hang off it.
func (q *Queue) atBarrier() bool { return q.id != GlobalBand && !q.draining }

// Now returns the queue's virtual time. A shard at a barrier reports the
// engine clock when that is ahead — callbacks dispatched at a barrier see
// the time they were stamped with, not the stale end of the last segment.
func (q *Queue) Now() Time {
	if q.atBarrier() && q.eng.band.now > q.now {
		return q.eng.band.now
	}
	return q.now
}

// Post schedules act at absolute virtual time at. Scheduling in the past
// panics: it always indicates a logic error in a discrete-event model. The
// one exception is a shard at a barrier, which has already drained past at:
// the request is clamped to the shard clock — the bounded batching latency
// that parallel mode trades for speed — and counted (Engine.Clamped),
// because a clamp is an instant the serial engine would not have used.
func (q *Queue) Post(at Time, act Action) {
	if at < q.now {
		at = q.past(at)
	}
	q.q.push(heapEntry{at, q.seq, act})
	q.seq++
}

// past is Post's cold path: panic, or clamp and count.
func (q *Queue) past(at Time) Time {
	if !q.atBarrier() {
		panic(fmt.Sprintf("sim: queue %d scheduling event at %v before now %v", q.id, at, q.now))
	}
	q.clamped++
	return q.now
}

// PostAfter schedules act d after the current time.
func (q *Queue) PostAfter(d Time, act Action) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	q.Post(q.Now()+d, act)
}

// step takes the event next located and runs it with the clock at its due
// time. The entry has left the queue before the action runs, so an action
// that reposts itself reuses the slot it just vacated.
func (q *Queue) step(at Time, bucket int) {
	x := q.q.take(bucket)
	q.now = at
	q.executed++
	x.act.Run()
}

// runThrough steps, in order, through every event due at or before last.
func (q *Queue) runThrough(last Time) {
	for q.q.len() > 0 {
		at, bucket := q.q.next()
		if at > last {
			return
		}
		q.step(at, bucket)
	}
}

// Engine is the discrete-event scheduler. The zero value is not usable; use
// NewEngine.
type Engine struct {
	band Queue    // the engine's own queue; the global band when sharded
	all  []*Queue // the band, then every shard in index order
	rand *Rand
	par  *parEngine // nil until EnableShards
}

// NewEngine returns an engine with the clock at zero and randomness seeded
// with seed.
func NewEngine(seed uint64) *Engine {
	e := &Engine{rand: NewRand(seed)}
	e.band = Queue{id: GlobalBand, eng: e}
	e.all = []*Queue{&e.band}
	return e
}

// Now, Post and PostAfter act on the engine's own queue.

func (e *Engine) Now() Time                    { return e.band.now }
func (e *Engine) Post(at Time, act Action)     { e.band.Post(at, act) }
func (e *Engine) PostAfter(d Time, act Action) { e.band.PostAfter(d, act) }

// Rand returns the engine's root random stream. Components should Fork it.
func (e *Engine) Rand() *Rand { return e.rand }

// Executed returns the number of events executed so far, summed across
// shards when the parallel backend is enabled.
func (e *Engine) Executed() uint64 {
	var n uint64
	for _, q := range e.all {
		n += q.executed
	}
	return n
}

// Pending returns the number of events currently scheduled, summed across
// shards when the parallel backend is enabled.
func (e *Engine) Pending() int {
	n := 0
	for _, q := range e.all {
		n += q.q.len()
	}
	return n
}

// Clamped returns how many past timestamps were moved up to a shard's clock
// — a Post from a barrier callback behind the shard, or a handoff merged
// into a destination already past its stamp — summed across shards. Each is
// an instant the serial engine would not have used, so the equivalence
// harness asserts zero. Diagnostic only: no digest or checkpoint carries it.
func (e *Engine) Clamped() uint64 {
	var n uint64
	for _, q := range e.all {
		n += q.clamped
	}
	return n
}

// Step executes the next event. It returns false when the queue is empty.
// Step is a serial-engine primitive; on a sharded engine use Run/RunUntil,
// which drive whole segments between barriers.
func (e *Engine) Step() bool {
	if e.par != nil {
		panic("sim: Step is not supported on a sharded engine; use Run or RunUntil")
	}
	b := &e.band
	if b.q.len() == 0 {
		return false
	}
	b.step(b.q.next())
	return true
}

// Run executes events until the queue is empty: RunUntil with no deadline,
// which leaves the clock at the last event.
func (e *Engine) Run() { e.RunUntil(MaxTime) }

// RunUntil executes events with due time <= deadline, then advances the
// clock to deadline. Events scheduled beyond the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) {
	if e.par != nil {
		e.par.run(deadline)
		return
	}
	b := &e.band
	b.runThrough(deadline)
	if b.now < deadline && deadline < MaxTime {
		b.now = deadline
	}
}
