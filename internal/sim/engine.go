// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, a 4-ary value-typed heap event queue (heap.go) with stable
// FIFO ordering for simultaneous events, and a seeded random number
// generator.
//
// The engine is single-threaded by default. Determinism — the property that
// a given seed reproduces a run exactly — is what makes the experiment
// harness in this repository trustworthy. For large topologies the engine
// can instead be switched to the sharded parallel backend (EnableShards, see
// shard.go), which preserves exact determinism: same-seed runs are
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

// Event is a scheduled callback. The callback runs with the clock set to the
// event's due time. Exactly one of fn and act is set: fn for closure-based
// Schedule/After, act for pooled Post/PostAfter (see action.go).
type Event struct {
	at     Time
	seq    uint64 // tie-break: FIFO among simultaneous events
	fn     func()
	act    Action
	tag    Tag // snapshot identity for dynamically scheduled closures
	dead   bool
	pooled bool // owned by a scheduler freelist; recycled after execution
}

// Cancel prevents the event from running. Cancelling an already-executed or
// already-cancelled event is a no-op.
func (e *Event) Cancel() { e.dead = true }

// Cancelled reports whether Cancel was called.
func (e *Event) Cancelled() bool { return e.dead }

// At returns the virtual time the event is (or was) scheduled for.
func (e *Event) At() Time { return e.at }

// Engine is the discrete-event scheduler. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now      Time
	queue    eventHeap
	seq      uint64
	setupSeq uint64 // watermark set by MarkSetup; lower seqs are setup events
	events   uint64 // total executed, for diagnostics
	rand     *Rand
	pool     eventFree  // freelist backing Post/PostAfter
	par      *parEngine // nil until EnableShards
}

// NewEngine returns an engine with the clock at zero and randomness seeded
// with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rand: NewRand(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's root random stream. Components should Fork it.
func (e *Engine) Rand() *Rand { return e.rand }

// Executed returns the number of events executed so far, summed across
// shards when the parallel backend is enabled.
func (e *Engine) Executed() uint64 {
	n := e.events
	if e.par != nil {
		for _, s := range e.par.shards {
			n += s.executed
		}
	}
	return n
}

// Pending returns the number of events currently scheduled, summed across
// shards when the parallel backend is enabled.
func (e *Engine) Pending() int {
	n := len(e.queue)
	if e.par != nil {
		for _, s := range e.par.shards {
			n += len(s.q)
		}
	}
	return n
}

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// panics: it always indicates a logic error in a discrete-event model.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := &Event{at: at, seq: e.seq, fn: fn}
	e.seq++
	e.queue.push(ev)
	return ev
}

// After runs fn d after the current time.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, fn)
}

// Step executes the next event. It returns false when the queue is empty.
// Step is a serial-engine primitive; on a sharded engine use Run/RunUntil,
// which drive whole segments between barriers.
func (e *Engine) Step() bool {
	if e.par != nil {
		panic("sim: Step is not supported on a sharded engine; use Run or RunUntil")
	}
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		if ev.dead {
			continue
		}
		e.exec(ev)
		return true
	}
	return false
}

// exec runs one popped, live event with the clock set to its due time.
func (e *Engine) exec(ev *Event) {
	e.now = ev.at
	e.events++
	if ev.act != nil {
		// Recycle before running: pooled events never escape, and the
		// action may immediately Post again, reusing this very Event.
		act := ev.act
		if ev.pooled {
			e.pool.put(ev)
		}
		act.Run()
	} else {
		ev.fn()
	}
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	if e.par != nil {
		e.par.run(MaxTime)
		return
	}
	for e.Step() {
	}
}

// RunUntil executes events with due time <= deadline, then advances the
// clock to deadline. Events scheduled beyond the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) {
	if e.par != nil {
		e.par.run(deadline)
		return
	}
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.ev.dead {
			e.queue.pop()
			continue
		}
		if next.at > deadline {
			break
		}
		e.exec(e.queue.pop())
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Ticker invokes fn every interval until the returned stop function is
// called. The first invocation happens one interval from now.
func (e *Engine) Ticker(interval Time, fn func()) (stop func()) {
	if interval <= 0 {
		panic("sim: non-positive ticker interval")
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			e.After(interval, tick)
		}
	}
	e.After(interval, tick)
	return func() { stopped = true }
}
