package sim

import "fmt"

// Action is a schedulable unit of work, the allocation-free alternative to
// a func() closure. Hot-path components implement Run on a pooled struct
// (a pointer-to-struct stored in the interface does not allocate) and
// schedule it with Post/PostAfter; the engine recycles the carrying Event
// through a scheduler-local freelist.
//
// Pooled events are fire-and-forget by construction: Post never returns
// the *Event, so no caller can hold a reference across the recycle. Work
// that needs cancellation keeps using Schedule/After, which allocate a
// fresh, never-recycled Event.
//
// Freelists are strictly per-scheduler (per Engine, per Shard) — never a
// sync.Pool, whose steal-anything semantics would make allocation order,
// and therefore memory reuse, depend on goroutine timing. Determinism of
// the simulation requires that a recycled object is indistinguishable from
// a fresh one AND that reuse itself follows a fixed order.
type Action interface {
	Run()
}

// eventFree is the shared freelist implementation embedded in Engine and
// Shard. Only the scheduler that owns it ever touches it (the coordinator
// between segments counts as the owner, synchronized by the barrier).
type eventFree struct {
	free []*Event
}

func (f *eventFree) get() *Event {
	if n := len(f.free); n > 0 {
		ev := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		return ev
	}
	return &Event{pooled: true}
}

func (f *eventFree) put(ev *Event) {
	ev.fn = nil
	ev.act = nil
	ev.tag = Tag{}
	ev.dead = false
	f.free = append(f.free, ev)
}

// Post schedules act at absolute virtual time at on a pooled event.
func (e *Engine) Post(at Time, act Action) {
	if at < e.now {
		panic("sim: posting event before now")
	}
	ev := e.pool.get()
	ev.at, ev.seq, ev.act = at, e.seq, act
	e.seq++
	e.queue.push(ev)
}

// PostAfter schedules act d after the current time on a pooled event.
func (e *Engine) PostAfter(d Time, act Action) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.Post(e.now+d, act)
}

// Post schedules act at absolute shard time at on a pooled event. Like
// Schedule, a past timestamp panics during a segment and clamps to the
// shard clock from a barrier callback.
func (s *Shard) Post(at Time, act Action) {
	if at < s.now {
		if s.draining {
			panic("sim: shard posting event before now")
		}
		at = s.now
	}
	ev := s.pool.get()
	ev.at, ev.seq, ev.act = at, s.seq, act
	s.seq++
	s.q.push(ev)
}

// PostAfter schedules act d after the shard's current time on a pooled
// event.
func (s *Shard) PostAfter(d Time, act Action) {
	if d < 0 {
		panic("sim: negative delay")
	}
	s.Post(s.Now()+d, act)
}

// HandoffAction is the Action counterpart of Handoff: schedule act on dst,
// d from now, buffered until the next barrier. The carrying handoff entry
// lives in the shard's reusable buffer, so steady-state cross-shard sends
// do not allocate either.
func (s *Shard) HandoffAction(dst *Shard, d Time, act Action) {
	if d < 0 {
		panic("sim: negative handoff delay")
	}
	if dst == s {
		s.PostAfter(d, act)
		return
	}
	if s.draining {
		if bound := s.eng.par.lookFor(s.id, dst.id); d < bound {
			panic(fmt.Sprintf("sim: handoff shard %d -> shard %d delay %v below pair lookahead bound %v (global quantum %v)",
				s.id, dst.id, d, bound, s.eng.par.quantum))
		}
	}
	s.outTo[dst.id] = append(s.outTo[dst.id], handoffMsg{at: s.Now() + d, act: act})
}

// DeferAction is the Action counterpart of Defer: act runs at the next
// barrier on the coordinating goroutine, ordered with all other deferred
// notifications by (time, source shard, emit sequence).
func (s *Shard) DeferAction(act Action) {
	s.pushNote(noteMsg{at: s.Now(), act: act})
}
