package sim

import (
	"fmt"
	"slices"
	"testing"
)

// The queue against the structure it replaced: an engine and a bare
// eventHeap are fed one monotone operation stream, and everything the
// queue can be asked — what runs next, when, how much is pending, the
// checkpoint walk, who survives a filter — must come out the same. The heap
// alone was the whole queue before the wheel, so it is the oracle for where
// an event may sit (wheel bucket, far heap, refused by a bucket) never
// showing.

// queueTwin is the engine under test and its oracle.
type queueTwin struct {
	t      testing.TB
	e      *Engine
	h      eventHeap
	got    []int
	ids    int
	lastAt Time   // due time of the latest push, for ties
	back   uint64 // sequence numbers for restored events, handed out downwards

	deepest int // most events ever pending
}

func newQueueTwin(t testing.TB) *queueTwin {
	return &queueTwin{t: t, e: NewEngine(1), back: 1 << 40}
}

func (w *queueTwin) now() Time { return w.e.band.now }

func (w *queueTwin) act() Action {
	w.ids++
	return &recAction{&w.got, w.ids}
}

// post schedules through Post, which numbers the event itself.
func (w *queueTwin) post(at Time) {
	a := w.act()
	w.h.push(heapEntry{at, w.e.band.seq, a})
	w.e.Post(at, a)
	w.lastAt = at
}

// restore re-arms through RestoreAction, under a sequence number below
// every one handed out so far: it sorts ahead of its simultaneous elders.
func (w *queueTwin) restore(at Time) {
	a := w.act()
	w.back--
	w.h.push(heapEntry{at, w.back, a})
	w.e.RestoreAction(GlobalBand, at, w.back, a)
	w.lastAt = at
}

// step runs up to n events one at a time.
func (w *queueTwin) step(n int) {
	for ; n > 0; n-- {
		w.got = w.got[:0]
		if ok := w.e.Step(); ok != (len(w.h) > 0) {
			w.t.Fatalf("Step = %v with %d events in the oracle", ok, len(w.h))
		} else if !ok {
			return
		}
		w.ran(w.h.pop())
	}
}

// ran checks the event the engine ran last against the oracle's.
func (w *queueTwin) ran(x heapEntry) {
	want := x.act.(*recAction).id
	if len(w.got) == 0 || w.got[0] != want || w.now() != x.at {
		w.t.Fatalf("ran %v at %v, oracle says event %d (at %v, seq %d)", w.got, w.now(), want, x.at, x.seq)
	}
	w.got = w.got[1:]
}

func (w *queueTwin) runUntil(deadline Time) {
	w.got = w.got[:0]
	w.e.RunUntil(deadline)
	for len(w.h) > 0 && w.h[0].at <= deadline {
		x := w.h.pop()
		if len(w.got) == 0 {
			w.t.Fatalf("RunUntil(%v) left event at %v, seq %d pending", deadline, x.at, x.seq)
		}
		want := x.act.(*recAction).id
		if w.got[0] != want {
			w.t.Fatalf("RunUntil(%v) ran event %d, oracle says %d (at %v, seq %d)", deadline, w.got[0], want, x.at, x.seq)
		}
		w.got = w.got[1:]
	}
	if len(w.got) != 0 || w.now() != deadline {
		w.t.Fatalf("RunUntil(%v): %d events too many, clock %v", deadline, len(w.got), w.now())
	}
}

func (w *queueTwin) filter(salt uint64) {
	keep := func(seq uint64) bool { return (seq*2654435761+salt)%4 != 0 }
	w.e.FilterPending(func(_ int, seq uint64) bool { return keep(seq) })
	var kept eventHeap
	for _, x := range w.h {
		if keep(x.seq) {
			kept.push(x)
		}
	}
	w.h = kept
}

// check compares everything that can be read without running an event.
func (w *queueTwin) check(walk bool) {
	head := MaxTime
	if len(w.h) > 0 {
		head = w.h[0].at
	}
	if w.e.band.head() != head || w.e.Pending() != len(w.h) {
		w.t.Fatalf("head %v, %d pending; oracle head %v, %d pending", w.e.band.head(), w.e.Pending(), head, len(w.h))
	}
	w.deepest = max(w.deepest, len(w.h))
	if !walk {
		return
	}
	o := slices.Clone(w.h)
	w.e.WalkPending(func(pe PendingEvent) {
		if x := o.pop(); pe.At != x.at || pe.Seq != x.seq || pe.Act != x.act {
			w.t.Fatalf("WalkPending visits (at %v, seq %d), oracle (at %v, seq %d)", pe.At, pe.Seq, x.at, x.seq)
		}
	})
}

// Operation stream: four bytes each, a kind and three operand bytes.
const (
	opNear    = iota // Post up to one wheel window ahead
	opFar            // Post up to 2^34 ns ahead
	opTie            // Post at the due time of the previous push
	opBurst          // 9..16 Posts into one bucket, due times descending
	opStep           // Step up to 16 events
	opRun            // RunUntil a deadline ahead
	opRestore        // RestoreAction near or far, sorting ahead of its ties
	opFilter         // FilterPending
	opClock          // RestoreCounters: the clock jumps ahead, up to the head
	numOps
)

func op(kind byte, v uint16, c byte) []byte { return []byte{kind, byte(v), byte(v >> 8), c} }

func (w *queueTwin) drive(ops []byte) {
	for n := 0; len(ops) >= 4; ops, n = ops[4:], n+1 {
		v, c := Time(ops[1])|Time(ops[2])<<8, ops[3]
		switch ops[0] % numOps {
		case opNear:
			w.post(w.now() + v<<6)
		case opFar:
			w.post(w.now() + v<<18)
		case opTie:
			w.post(max(w.lastAt, w.now()))
		case opBurst:
			slot := ((w.now()+v<<6)>>wheelShift + 1) << wheelShift
			for i := Time(9 + c%8); i > 0; i-- {
				w.post(slot + i)
			}
		case opStep:
			w.step(1 + int(c%16))
		case opRun:
			w.runUntil(w.now() + v<<(c%12))
		case opRestore:
			w.restore(w.now() + v<<(6+12*(c&1)))
		case opFilter:
			w.filter(uint64(v))
		case opClock:
			b := &w.e.band
			to := w.now() + v<<(c%12)
			if len(w.h) > 0 {
				to = min(to, w.h[0].at)
			}
			b.RestoreCounters(to, b.seq, b.executed)
		}
		w.check(n%256 == 0)
	}
	w.check(true)
	w.runUntil(w.now() + 1<<36)
	if w.e.Pending() != 0 {
		w.t.Fatalf("%d events pending after the final run", w.e.Pending())
	}
}

// The scripted streams: each is a shape the wheel must not let show.
var queueScripts = map[string][]byte{
	// Events refused by a full bucket wait in the heap beside the bucket's
	// own, and the two bands interleave within one microsecond.
	"descending burst falls back to the heap": slices.Concat(
		op(opBurst, 100, 7), op(opBurst, 100, 7), op(opNear, 101, 0), op(opTie, 0, 0), op(opStep, 0, 15), op(opStep, 0, 15), op(opStep, 0, 15)),
	// Re-armed before the clock is: filed against a clock at zero, near and
	// far, then the counters move the clock up to them.
	"RestoreAction before RestoreCounters": slices.Concat(
		op(opRestore, 40000, 0), op(opRestore, 40010, 0), op(opRestore, 900, 1), op(opRestore, 40000, 0), op(opRestore, 901, 1),
		op(opClock, 39000, 6), op(opNear, 5, 0), op(opStep, 0, 15)),
	// Eleven far events about a millisecond apart; five are served from the
	// heap while the clock crosses more than two revolutions, then two near
	// events land in wrapped order (12.9 ms in bucket 303, 11.5 ms in bucket
	// 3024) with heap events between them. A scan that starts behind the
	// slot the two were measured from meets the later one first.
	"heap pops outrun a revolution": slices.Concat(
		op(opFar, 20, 0), op(opFar, 24, 0), op(opFar, 28, 0), op(opFar, 32, 0), op(opFar, 36, 0), op(opFar, 40, 0),
		op(opFar, 44, 0), op(opFar, 48, 0), op(opFar, 52, 0), op(opFar, 56, 0), op(opFar, 60, 0),
		op(opStep, 0, 4), op(opNear, 54000, 0), op(opNear, 32000, 0), op(opStep, 0, 15)),
	"filter, then ties across both bands": slices.Concat(
		op(opFar, 17, 0), op(opTie, 0, 0), op(opNear, 60000, 0), op(opTie, 0, 0), op(opTie, 0, 0), op(opFilter, 3, 0),
		op(opRun, 3000, 11), op(opTie, 0, 0), op(opRestore, 0, 0), op(opStep, 0, 15)),
}

func TestQueueMatchesHeapOracle(t *testing.T) {
	for name, ops := range queueScripts {
		t.Run(name, func(t *testing.T) { newQueueTwin(t).drive(ops) })
	}
	// Random streams, in phases of 4,000 operations: a growing phase of
	// mostly pushes, near and far in equal parts, between short steps and
	// clock jumps, then a draining phase of mostly steps, runs and filters.
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("random seed %d", seed), func(t *testing.T) {
			rng := NewRand(seed)
			pushes := []byte{opNear, opNear, opNear, opFar, opFar, opFar, opTie, opBurst, opRestore, opRestore}
			others := []byte{opStep, opStep, opStep, opStep, opStep, opRun, opRun, opRun, opRun, opClock, opClock, opFilter}
			var ops []byte
			for i := 0; i < 12000; i++ {
				growing := i/4000%2 == 0
				kind, c := others[rng.Intn(len(others))], byte(rng.Intn(256))
				if growing {
					kind, c = others[rng.Intn(2)*(len(others)-2)], c%4 // opStep or opClock
				}
				if rng.Intn(10) < 3 || (growing && rng.Intn(10) < 8) {
					kind = pushes[rng.Intn(len(pushes))]
				}
				ops = append(ops, op(kind, uint16(rng.Intn(1<<16)), c)...)
			}
			w := newQueueTwin(t)
			w.drive(ops)
			if w.deepest < 4000 {
				t.Fatalf("the stream never held more than %d events", w.deepest)
			}
		})
	}
}

// FuzzQueueOps is the same comparison over a stream the fuzzer writes.
func FuzzQueueOps(f *testing.F) {
	for _, ops := range queueScripts {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { newQueueTwin(t).drive(ops) })
}
