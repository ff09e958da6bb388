package sim

import "testing"

type nopAction struct{ ran int }

func (a *nopAction) Run() { a.ran++ }

// Post + Step on a warmed engine must be allocation-free: the event is a
// value in the heap's backing array, the Action is a pointer-to-struct in an
// interface (no box), and push and pop move entries inside that one array —
// first draining to empty, then in the hold pattern (one pop, one push) at a
// steady depth of 4096. The same must hold on a shard driven through
// segments and barriers: a hold pattern at depth 4096 on each shard's own
// queue, plus a token that crosses to the other shard through Handoff every
// quantum, which rides the source's reusable slab and the barrier merge.
func TestEnginePostZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	act := &nopAction{}
	// Warm the heap's backing array.
	for i := 0; i < 64; i++ {
		e.PostAfter(Time(i), act)
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.PostAfter(Time(i), act)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("engine Post/Run allocates %v per run, want 0", allocs)
	}
	if act.ran == 0 {
		t.Fatal("actions never ran")
	}

	for i := 0; i < 4096; i++ {
		e.PostAfter(Time(1+i%97), act)
	}
	i := 0
	allocs = testing.AllocsPerRun(100, func() {
		for k := 0; k < 64; k++ {
			if !e.Step() {
				t.Fatal("queue ran dry")
			}
			e.PostAfter(Time(1+i%97), act)
			i++
		}
	})
	if allocs != 0 {
		t.Fatalf("engine Step/Post at depth 4096 allocates %v per run, want 0", allocs)
	}
	if e.Pending() != 4096 {
		t.Fatalf("hold pattern drifted to depth %d", e.Pending())
	}

	const quantum = 8
	e = NewEngine(1)
	e.EnableShards(2, quantum, 1)
	var crossed int
	for s := 0; s < 2; s++ {
		for i := 0; i < 4096; i++ {
			e.Queue(s).PostAfter(Time(1+i%97), &holdAction{e.Queue(s), Time(1 + i%97)})
		}
		e.Queue(s).Post(0, &tokenAction{e.Queue(s), e.Queue(1 - s), quantum, &crossed})
	}
	e.RunUntil(1000) // warm the heaps and the handoff slabs
	before := crossed
	allocs = testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 64) })
	if allocs != 0 {
		t.Fatalf("sharded Post/pop/Handoff at depth 4096 allocates %v per run, want 0", allocs)
	}
	if e.Pending() != 2*4096+2 || crossed-before < 100*2*64/quantum || e.Clamped() != 0 {
		t.Fatalf("sharded hold pattern: depth %d, %d handoffs, %d clamps", e.Pending(), crossed-before, e.Clamped())
	}
}

// holdAction reposts itself on its own queue every d.
type holdAction struct {
	q *Queue
	d Time
}

func (a *holdAction) Run() { a.q.PostAfter(a.d, a) }

// tokenAction hands itself to the other shard every d.
type tokenAction struct {
	at, to *Queue
	d      Time
	n      *int
}

func (a *tokenAction) Run() {
	*a.n++
	a.at.Handoff(a.to, a.d, a)
	a.at, a.to = a.to, a.at
}

// A self-reposting action (the traffic-source pattern) must run on one slab
// node forever: its entry has left the wheel before it runs, so the repost
// takes the node it just freed. 10^5 hops may neither allocate nor grow the
// slab beyond the nil node and that one.
func TestSelfRepostChainZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	act := &chainAction{e: e}
	chain := func() {
		act.left = 100000
		e.Post(e.Now(), act)
		e.Run()
	}
	chain()
	slabBefore := len(e.band.q.slab)
	if allocs := testing.AllocsPerRun(1, chain); allocs != 0 {
		t.Fatalf("a 10^5-hop self-reposting chain allocates %v, want 0", allocs)
	}
	if act.hops != 3*100000 || len(e.band.q.slab) != slabBefore || slabBefore != 2 {
		t.Fatalf("hops = %d, slab %d -> %d nodes", act.hops, slabBefore, len(e.band.q.slab))
	}
}

type chainAction struct {
	e          *Engine
	left, hops int
}

func (a *chainAction) Run() {
	a.hops++
	if a.left--; a.left > 0 {
		a.e.PostAfter(1, a)
	}
}
