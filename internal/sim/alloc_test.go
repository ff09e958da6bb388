package sim

import "testing"

type nopAction struct{ ran int }

func (a *nopAction) Run() { a.ran++ }

// Post + Step on a warmed engine must be allocation-free: the carrying
// Event comes from the freelist, the Action is a pointer-to-struct in an
// interface (no box), and the heap's push and pop move value-typed entries
// inside one backing array — first draining to empty, then in the hold
// pattern (one pop, one push) at a steady depth of 4096.
func TestEnginePostZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	act := &nopAction{}
	// Warm the freelist and the heap's backing array.
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
}

// A pooled event must be recycled before its action runs, so a
// self-rescheduling action (the traffic-source pattern) reuses one Event
// forever instead of growing the heap.
func TestPostRecycleBeforeRun(t *testing.T) {
	e := NewEngine(1)
	var hops int
	var act Action
	act = actionFunc(func() {
		if hops++; hops < 100 {
			e.PostAfter(1, act)
		}
	})
	e.Post(0, act)
	e.Run()
	if hops != 100 {
		t.Fatalf("hops = %d", hops)
	}
	if got := len(e.pool.free); got != 1 {
		t.Fatalf("freelist holds %d events after a self-rescheduling chain, want 1", got)
	}
}

type actionFunc func()

func (f actionFunc) Run() { f() }
