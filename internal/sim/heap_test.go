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
	at   Time
	seq  uint64
	id   int
	ev   *Event // Schedule only; nil for Post and handoffs
	gone bool   // cancelled or filtered out
}

// oracleQueue mirrors one scheduler's pending set.
type oracleQueue struct {
	pending []*oracleEv
}

func (q *oracleQueue) add(at Time, seq uint64, id int, ev *Event) {
	q.pending = append(q.pending, &oracleEv{at: at, seq: seq, id: id, ev: ev})
}

// due removes and returns, in (at, seq) order, the ids of the live events
// with at <= deadline, at most max of them (max < 0: all).
func (q *oracleQueue) due(deadline Time, max int) []int {
	sort.SliceStable(q.pending, func(i, j int) bool {
		a, b := q.pending[i], q.pending[j]
		return a.at < b.at || (a.at == b.at && a.seq < b.seq)
	})
	var ids []int
	rest := q.pending[:0]
	for _, o := range q.pending {
		switch {
		case o.gone:
		case o.at <= deadline && (max < 0 || len(ids) < max):
			ids = append(ids, o.id)
		default:
			rest = append(rest, o)
		}
	}
	q.pending = rest
	return ids
}

type recAction struct {
	got *[]int
	id  int
}

func (a *recAction) Run() { *a.got = append(*a.got, a.id) }

func sameIDs(t *testing.T, what string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: executed %d events, oracle says %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d of %d was id %d, oracle says id %d", what, i, len(want), got[i], want[i])
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
			seq := e.Seq(GlobalBand)
			if rng.Intn(2) == 0 {
				q.add(at, seq, id, e.Schedule(at, func() { got = append(got, id) }))
			} else {
				e.Post(at, &recAction{&got, id})
				q.add(at, seq, id, nil)
			}
		}
		check := func(what string, want []int) {
			t.Helper()
			sameIDs(t, fmt.Sprintf("seed %d %s", seed, what), got, want)
			got = got[:0]
		}
		for i := 0; i < 10000; i++ {
			push()
		}
		for round := 0; round < 400; round++ {
			switch rng.Intn(6) {
			case 0: // a burst of pushes
				for i := rng.Intn(300); i > 0; i-- {
					push()
				}
			case 1: // cancel some Schedule events
				for i := rng.Intn(50); i > 0 && len(q.pending) > 0; i-- {
					if o := q.pending[rng.Intn(len(q.pending))]; o.ev != nil {
						o.ev.Cancel()
						o.gone = true
					}
				}
			case 2: // single steps
				k := rng.Intn(200)
				want := q.due(MaxTime, k)
				for i := 0; i < k; i++ {
					if e.Step() != (i < len(want)) {
						t.Fatalf("seed %d: Step disagrees with the oracle about emptiness", seed)
					}
				}
				check("Step", want)
			case 3:
				deadline := e.Now() + Time(rng.Intn(8))
				e.RunUntil(deadline)
				check("RunUntil", q.due(deadline, -1))
				if e.Now() != deadline {
					t.Fatalf("seed %d: clock %v after RunUntil(%v)", seed, e.Now(), deadline)
				}
			case 4: // FilterPending drops a pseudo-random third by seq
				salt := uint64(rng.Intn(1 << 20))
				keep := func(seq uint64) bool { return (seq*2654435761+salt)%3 != 0 }
				e.FilterPending(func(_ int, seq uint64) bool { return keep(seq) })
				for _, o := range q.pending {
					if !keep(o.seq) {
						o.gone = true
					}
				}
			case 5: // refill towards full depth
				for len(q.pending) < 10000 {
					push()
				}
			}
		}
		e.Run()
		check("final Run", q.due(MaxTime, -1))
	}
}

// The same on a 4-shard engine: local Schedule/Post on each shard, Cancel,
// FilterPending, and cross-shard Handoff/HandoffAction batches that the
// barrier merges in bulk (a batch of at least a quarter of the destination
// heap is appended and re-heapified; a smaller one is pushed entry by
// entry). A merged entry takes its destination sequence number at the merge,
// in (source shard, send order) per destination — the oracle numbers them
// the same way — and every shard must then execute in its own (at, seq)
// order.
func TestQueueMatchesSortOracleSharded(t *testing.T) {
	const shards = 4
	for _, seed := range []uint64{1, 2} {
		e := NewEngine(seed)
		e.EnableShards(shards, 1, 2)
		rng := NewRand(seed * 7919)
		var q [shards]oracleQueue
		var got [shards][]int
		type sent struct {
			at Time
			id int
		}
		var slab [shards][shards][]sent // [src][dst], awaiting the merge
		nextID := 0
		pushLocal := func(s int) {
			sh := e.Shard(s)
			at := sh.Now() + Time(rng.Intn(40))
			id := nextID
			nextID++
			seq := e.Seq(s)
			if rng.Intn(2) == 0 {
				q[s].add(at, seq, id, sh.Schedule(at, func() { got[s] = append(got[s], id) }))
			} else {
				sh.Post(at, &recAction{&got[s], id})
				q[s].add(at, seq, id, nil)
			}
		}
		handoff := func(src, dst int) {
			d := Time(1 + rng.Intn(40))
			id := nextID
			nextID++
			slab[src][dst] = append(slab[src][dst], sent{e.Shard(src).Now() + d, id})
			if rng.Intn(2) == 0 {
				e.Shard(src).Handoff(e.Shard(dst), d, func() { got[dst] = append(got[dst], id) })
			} else {
				e.Shard(src).HandoffAction(e.Shard(dst), d, &recAction{&got[dst], id})
			}
		}
		run := func(deadline Time) {
			// The oracle's merge: per destination, sources in index order.
			for dst := 0; dst < shards; dst++ {
				seq := e.Seq(dst)
				for src := 0; src < shards; src++ {
					for _, m := range slab[src][dst] {
						q[dst].add(m.at, seq, m.id, nil)
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
			for s := 0; s < shards; s++ {
				sameIDs(t, fmt.Sprintf("seed %d shard %d run to %v", seed, s, deadline), got[s], q[s].due(deadline, -1))
				got[s] = got[s][:0]
			}
		}
		for s := 0; s < shards; s++ {
			for i := 0; i < 2500; i++ {
				pushLocal(s)
			}
		}
		for round := 0; round < 200; round++ {
			switch rng.Intn(5) {
			case 0:
				for i := rng.Intn(400); i > 0; i-- {
					pushLocal(rng.Intn(shards))
				}
			case 1: // one big batch onto one pair, a few strays elsewhere
				src, dst := rng.Intn(shards), rng.Intn(shards)
				if src == dst {
					dst = (dst + 1) % shards
				}
				for i := rng.Intn(2000); i > 0; i-- {
					handoff(src, dst)
				}
				for i := rng.Intn(5); i > 0; i-- {
					a := rng.Intn(shards)
					handoff(a, (a+1+rng.Intn(shards-1))%shards)
				}
			case 2:
				s := rng.Intn(shards)
				for i := rng.Intn(50); i > 0 && len(q[s].pending) > 0; i-- {
					if o := q[s].pending[rng.Intn(len(q[s].pending))]; o.ev != nil {
						o.ev.Cancel()
						o.gone = true
					}
				}
			case 3:
				run(e.Now() + Time(rng.Intn(8)))
			case 4:
				// Filtering is a restore-time operation on a settled engine:
				// merge outstanding slabs first, as a run would.
				run(e.Now())
				salt := uint64(rng.Intn(1 << 20))
				keep := func(shard int, seq uint64) bool { return (seq*2654435761+salt+uint64(shard))%3 != 0 }
				e.FilterPending(keep)
				for s := range q {
					for _, o := range q[s].pending {
						if !keep(s, o.seq) {
							o.gone = true
						}
					}
				}
			}
		}
		run(MaxTime)
	}
}

// BenchmarkEngineHold is the classic hold model: a queue kept at a steady
// depth, each operation one Step plus one Post of a successor a random
// distance ahead. It is the queue alone — no packets, no routers — so
// `make bench` shows how the cost of an event grows with depth.
func BenchmarkEngineHold(b *testing.B) {
	for _, depth := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			e := NewEngine(1)
			rng := NewRand(7)
			act := &nopAction{}
			delays := make([]Time, 1<<12)
			for i := range delays {
				delays[i] = Time(1 + rng.Intn(1000))
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
