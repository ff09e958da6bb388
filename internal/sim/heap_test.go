package sim

import (
	"fmt"
	"sort"
	"testing"
)

// The queue property test: random scheduler traffic against an oracle that
// knows nothing about heaps — a flat list of (at, seq) records, sorted when
// an answer is needed. Delays are drawn from a range far smaller than the
// event count, so most events share their instant with hundreds of others
// and the FIFO tie-break carries the order.

type oracleEv struct {
	at    Time
	seq   uint64
	id    int
	notes bool // the event Defers a note when it runs (sharded test only)
	gone  bool // dropped by DropPending
}

// oracleQueue mirrors one scheduler's pending set.
type oracleQueue struct {
	pending []*oracleEv
}

func (q *oracleQueue) add(at Time, seq uint64, id int) *oracleEv {
	o := &oracleEv{at: at, seq: seq, id: id}
	q.pending = append(q.pending, o)
	return o
}

// due removes and returns, in (at, seq) order, the live events with
// at <= deadline, at most max of them (max < 0: all).
func (q *oracleQueue) due(deadline Time, max int) []*oracleEv {
	sort.SliceStable(q.pending, func(i, j int) bool {
		a, b := q.pending[i], q.pending[j]
		return a.at < b.at || (a.at == b.at && a.seq < b.seq)
	})
	var out []*oracleEv
	rest := q.pending[:0]
	for _, o := range q.pending {
		switch {
		case o.gone:
		case o.at <= deadline && (max < 0 || len(out) < max):
			out = append(out, o)
		default:
			rest = append(rest, o)
		}
	}
	q.pending = rest
	return out
}

type recAction struct {
	got *[]int
	id  int
}

func (a *recAction) Run() { *a.got = append(*a.got, a.id) }

func sameIDs(t *testing.T, what string, got []int, want []*oracleEv) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: executed %d events, oracle says %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i].id {
			t.Fatalf("%s: event %d of %d was id %d, oracle says id %d", what, i, len(want), got[i], want[i].id)
		}
	}
}

func TestQueueMatchesSortOracleSerial(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		e := NewEngine(seed)
		rng := NewRand(seed * 977)
		var q oracleQueue
		var got []int
		nextID := 0
		push := func() {
			at := e.Now() + Time(rng.Intn(40))
			id := nextID
			nextID++
			_, seq, _ := e.Queue(GlobalBand).Counters()
			if rng.Intn(2) == 0 {
				e.Post(at, call(func() { got = append(got, id) }))
			} else {
				e.Post(at, &recAction{&got, id})
			}
			q.add(at, seq, id)
		}
		check := func(what string, want []*oracleEv) {
			t.Helper()
			sameIDs(t, fmt.Sprintf("seed %d %s", seed, what), got, want)
			got = got[:0]
		}
		for i := 0; i < 10000; i++ {
			push()
		}
		for round := 0; round < 400; round++ {
			switch rng.Intn(5) {
			case 0: // a burst of pushes
				for i := rng.Intn(300); i > 0; i-- {
					push()
				}
			case 1: // single steps
				k := rng.Intn(200)
				want := q.due(MaxTime, k)
				for i := 0; i < k; i++ {
					if e.Step() != (i < len(want)) {
						t.Fatalf("seed %d: Step disagrees with the oracle about emptiness", seed)
					}
				}
				check("Step", want)
			case 2:
				deadline := e.Now() + Time(rng.Intn(8))
				e.RunUntil(deadline)
				check("RunUntil", q.due(deadline, -1))
				if e.Now() != deadline {
					t.Fatalf("seed %d: clock %v after RunUntil(%v)", seed, e.Now(), deadline)
				}
			case 3: // DropPending, rarely: it empties the queue
				if rng.Intn(8) != 0 {
					continue
				}
				e.DropPending()
				for _, o := range q.pending {
					o.gone = true
				}
			case 4: // refill towards full depth
				for len(q.pending) < 10000 {
					push()
				}
			}
		}
		e.Run()
		check("final Run", q.due(MaxTime, -1))
		if e.Clamped() != 0 {
			t.Fatalf("seed %d: serial engine clamped %d timestamps", seed, e.Clamped())
		}
	}
}

// notingAction records its id like recAction and Defers a note from inside
// the segment; the note records the id again when the barrier dispatches it.
type notingAction struct {
	recAction
	q     *Queue
	notes *[]int
}

func (a *notingAction) Run() {
	a.recAction.Run()
	a.q.Defer(&recAction{a.notes, a.id})
}

// The same on a 4-shard engine: local Schedule/Post on each shard,
// DropPending, and cross-shard Handoff batches that the barrier merges,
// large and small. A merged entry
// takes its destination sequence number at the merge, in (source shard, send
// order) per destination — the oracle numbers them the same way — and every
// shard must then execute in its own (at, seq) order.
//
// Three more properties ride on the same traffic. One event in eight Defers
// a note from inside its segment, and the notes of a run must dispatch in
// the oracle's (time, shard, emit) order however the segments were cut. A
// Post from outside a run into a shard's past is clamped to the shard clock
// and counted — the only clamps the whole run may count. And a handoff sent
// between two RunUntil calls a few ticks apart must run on its destination
// inside the second one, at the stamp it was sent with.
func TestQueueMatchesSortOracleSharded(t *testing.T) {
	const shards = 4
	for _, seed := range []uint64{1, 2} {
		e := NewEngine(seed)
		e.EnableShards(shards, 1, 2)
		rng := NewRand(seed * 7919)
		var q [shards]oracleQueue
		var got [shards][]int
		var notes []int
		var clamps uint64
		type sent struct {
			at Time
			id int
		}
		var slab [shards][shards][]sent // [src][dst], awaiting the merge
		nextID := 0
		pushLocal := func(s int, at Time) {
			sh := e.Queue(s)
			id := nextID
			nextID++
			now, seq, _ := sh.Counters()
			o := q[s].add(max(at, now), seq, id)
			if at < now {
				clamps++ // and max above is what the clamp must do
			}
			switch rng.Intn(8) {
			case 0:
				o.notes = true
				sh.Post(at, &notingAction{recAction{&got[s], id}, sh, &notes})
			case 1, 2, 3:
				sh.Post(at, call(func() { got[s] = append(got[s], id) }))
			default:
				sh.Post(at, &recAction{&got[s], id})
			}
		}
		handoff := func(src, dst int, d Time) {
			id := nextID
			nextID++
			slab[src][dst] = append(slab[src][dst], sent{e.Queue(src).Now() + d, id})
			e.Queue(src).Handoff(e.Queue(dst), d, &recAction{&got[dst], id})
		}
		run := func(deadline Time) {
			// The oracle's merge: per destination, sources in index order.
			for dst := 0; dst < shards; dst++ {
				_, seq, _ := e.Queue(dst).Counters()
				for src := 0; src < shards; src++ {
					for _, m := range slab[src][dst] {
						q[dst].add(m.at, seq, m.id)
						seq++
					}
					slab[src][dst] = nil
				}
			}
			if deadline == MaxTime {
				e.Run()
			} else {
				e.RunUntil(deadline)
			}
			what := fmt.Sprintf("seed %d run to %v", seed, deadline)
			// The oracle's note stream: every noting event that ran, by
			// (time, shard, position in the shard's own execution order).
			type noteKey struct {
				o        *oracleEv
				shard, k int
			}
			var wantNotes []noteKey
			for s := 0; s < shards; s++ {
				want := q[s].due(deadline, -1)
				sameIDs(t, fmt.Sprintf("%s, shard %d", what, s), got[s], want)
				got[s] = got[s][:0]
				for k, o := range want {
					if o.notes {
						wantNotes = append(wantNotes, noteKey{o, s, k})
					}
				}
			}
			sort.Slice(wantNotes, func(i, j int) bool {
				a, b := wantNotes[i], wantNotes[j]
				if a.o.at != b.o.at {
					return a.o.at < b.o.at
				}
				if a.shard != b.shard {
					return a.shard < b.shard
				}
				return a.k < b.k
			})
			want := make([]*oracleEv, len(wantNotes))
			for i, nk := range wantNotes {
				want[i] = nk.o
			}
			sameIDs(t, what+", deferred notes", notes, want)
			notes = notes[:0]
			if e.Clamped() != clamps {
				t.Fatalf("%s: engine counts %d clamps, oracle %d", what, e.Clamped(), clamps)
			}
		}
		for s := 0; s < shards; s++ {
			for i := 0; i < 2500; i++ {
				pushLocal(s, Time(rng.Intn(40)))
			}
		}
		for round := 0; round < 200; round++ {
			switch rng.Intn(7) {
			case 0:
				for i := rng.Intn(400); i > 0; i-- {
					s := rng.Intn(shards)
					pushLocal(s, e.Queue(s).Now()+Time(rng.Intn(40)))
				}
			case 1: // one big batch onto one pair, a few strays elsewhere
				src, dst := rng.Intn(shards), rng.Intn(shards)
				if src == dst {
					dst = (dst + 1) % shards
				}
				for i := rng.Intn(2000); i > 0; i-- {
					handoff(src, dst, Time(1+rng.Intn(40)))
				}
				for i := rng.Intn(5); i > 0; i-- {
					a := rng.Intn(shards)
					handoff(a, (a+1+rng.Intn(shards-1))%shards, Time(1+rng.Intn(40)))
				}
			case 2, 3:
				run(e.Now() + Time(rng.Intn(8)))
			case 4:
				// Emptying is a restore-time operation on a settled engine,
				// and rare here. A handoff sent since the last run waits in
				// its slab, and goes too.
				run(e.Now())
				if rng.Intn(8) != 0 {
					continue
				}
				a := rng.Intn(shards)
				handoff(a, (a+1)%shards, Time(1+rng.Intn(3)))
				e.DropPending()
				slab = [shards][shards][]sent{}
				for s := range q {
					for _, o := range q[s].pending {
						o.gone = true
					}
				}
			case 5: // posts from outside a run, behind the shard clock
				for i := rng.Intn(20); i > 0; i-- {
					s := rng.Intn(shards)
					pushLocal(s, e.Queue(s).Now()-Time(1+rng.Intn(5)))
				}
			case 6: // a handoff between two RunUntil calls, due in the second
				run(e.Now() + Time(rng.Intn(4)))
				a := rng.Intn(shards)
				handoff(a, (a+1+rng.Intn(shards-1))%shards, Time(1+rng.Intn(3)))
				run(e.Now() + 3)
			}
		}
		run(MaxTime)
		if clamps == 0 {
			t.Fatalf("seed %d: the script never posted into a shard's past", seed)
		}
	}
}

// BenchmarkQueueHold is the classic hold model: a queue kept at a steady
// depth, each operation one Step plus one Post of a successor a random
// distance ahead. It is the queue alone — no packets, no routers — so it
// shows how the cost of an event grows with depth. "near" draws every delay
// below 1 ms, the wheel's case; "mixed" sends every other successor up to
// 1 s out, through the far heap.
func BenchmarkQueueHold(b *testing.B) {
	for _, depth := range []int{256, 4096, 65536} {
		for _, mix := range []string{"near", "mixed"} {
			b.Run(fmt.Sprintf("depth%d/%s", depth, mix), func(b *testing.B) {
				e := NewEngine(1)
				rng := NewRand(7)
				act := &nopAction{}
				delays := make([]Time, 1<<12)
				for i := range delays {
					delays[i] = Time(1 + rng.Intn(int(Millisecond)))
					if mix == "mixed" && i%2 == 1 {
						delays[i] = Time(1 + rng.Intn(int(Second)))
					}
				}
				for i := 0; i < depth; i++ {
					e.PostAfter(delays[i%len(delays)], act)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Step()
					e.PostAfter(delays[i%len(delays)], act)
				}
			})
		}
	}
}
