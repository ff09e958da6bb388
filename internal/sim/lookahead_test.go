package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// mat builds an n×n matrix with every off-diagonal entry v.
func mat(n int, v Time) [][]Time {
	m := make([][]Time, n)
	for i := range m {
		m[i] = make([]Time, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = v
			}
		}
	}
	return m
}

func TestSetLookaheadValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}

	e := NewEngine(1)
	mustPanic("unsharded", func() { e.SetLookahead(mat(2, Millisecond)) })

	e = NewEngine(1)
	e.EnableShards(3, Millisecond, 1)
	mustPanic("wrong rows", func() { e.SetLookahead(mat(2, Millisecond)) })
	mustPanic("ragged row", func() {
		m := mat(3, Millisecond)
		m[1] = m[1][:2]
		e.SetLookahead(m)
	})
	mustPanic("below quantum", func() {
		m := mat(3, Millisecond)
		m[0][2] = Microsecond
		e.SetLookahead(m)
	})

	// A legal matrix installs, MaxTime entries included, and reads back.
	m := mat(3, 2*Millisecond)
	m[0][1] = MaxTime
	e.SetLookahead(m)
	if got := e.PairLookahead(0, 1); got != MaxTime {
		t.Errorf("PairLookahead(0,1) = %v, want MaxTime", got)
	}
	if got := e.PairLookahead(1, 0); got != 2*Millisecond {
		t.Errorf("PairLookahead(1,0) = %v, want 2ms", got)
	}
}

// TestLookaheadClosure pins the min-plus transitive closure: segment
// bounds must account for causality chains through intermediate shards,
// not just direct cut links.
func TestLookaheadClosure(t *testing.T) {
	e := NewEngine(1)
	e.EnableShards(3, Millisecond, 1)
	m := mat(3, MaxTime)
	m[0][1] = 2 * Millisecond
	m[1][2] = 3 * Millisecond
	m[2][0] = 4 * Millisecond
	e.SetLookahead(m)

	p := e.par
	// Direct bounds are untouched (they govern handoff legality) ...
	if got := p.lookFor(0, 2); got != MaxTime {
		t.Errorf("direct 0->2 = %v, want MaxTime", got)
	}
	// ... while the closure composes the 0->1->2 chain.
	if got := p.closedFor(0, 2); got != 5*Millisecond {
		t.Errorf("closed 0->2 = %v, want 5ms", got)
	}
	if got := p.closedFor(1, 0); got != 7*Millisecond {
		t.Errorf("closed 1->0 = %v, want 7ms (1->2->0)", got)
	}
}

// TestPairMatrixDegeneratesToUniform is the sim half of the matrix
// soundness property: a per-pair matrix whose entries all equal the
// quantum must reproduce the uniform-quantum trace byte for byte, and a
// widened matrix over the same (legal) workload must reproduce it too —
// per-shard boundaries change scheduling, never observable order.
func TestPairMatrixDegeneratesToUniform(t *testing.T) {
	run := func(configure func(e *Engine)) []string {
		e := NewEngine(1)
		e.EnableShards(4, Millisecond, 2)
		if configure != nil {
			configure(e)
		}
		var trace []string
		buildPingPong(e, 4, &trace)
		e.Run()
		return trace
	}

	want := run(nil) // uniform 1ms quantum, no matrix
	if len(want) == 0 {
		t.Fatal("empty trace")
	}
	degenerate := run(func(e *Engine) { e.SetLookahead(mat(4, Millisecond)) })
	if !reflect.DeepEqual(degenerate, want) {
		t.Fatalf("degenerate matrix diverged from uniform quantum:\n got %v\nwant %v", degenerate, want)
	}
	// buildPingPong hands off with 5ms delay, so widening every pair to
	// 5ms keeps the workload legal while desynchronizing the shards.
	widened := run(func(e *Engine) { e.SetLookahead(mat(4, 5*Millisecond)) })
	if !reflect.DeepEqual(widened, want) {
		t.Fatalf("widened matrix diverged from uniform quantum:\n got %v\nwant %v", widened, want)
	}
}

// TestHandoffBelowPairBoundPanics: the violation report must name the
// (src, dst) shard pair and the pair's own bound, not just the global
// quantum — with a matrix installed, "which pair" is the whole diagnosis.
func TestHandoffBelowPairBoundPanics(t *testing.T) {
	e := NewEngine(1)
	e.EnableShards(2, Millisecond, 1)
	m := mat(2, Millisecond)
	m[0][1] = 8 * Millisecond
	e.SetLookahead(m)
	s0, s1 := e.Queue(0), e.Queue(1)
	s0.Post(Millisecond, call(func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("expected panic for handoff below pair bound")
				return
			}
			msg := fmt.Sprint(r)
			for _, want := range []string{"shard 0 -> shard 1", "8ms", "2ms", "1ms"} {
				if !strings.Contains(msg, want) {
					t.Errorf("panic %q does not mention %q", msg, want)
				}
			}
		}()
		// 2ms clears the global quantum but not this pair's 8ms bound.
		s0.Handoff(s1, 2*Millisecond, call(func() {}))
	}))
	e.Run()
}

func TestRunOnShards(t *testing.T) {
	e := NewEngine(1)
	e.EnableShards(4, Millisecond, 4)
	cells := make([]int, 4)
	e.RunOnShards(func(shard int) { cells[shard] = shard + 1 })
	if !reflect.DeepEqual(cells, []int{1, 2, 3, 4}) {
		t.Errorf("cells = %v, want each shard to have run once", cells)
	}

	defer func() {
		if recover() == nil {
			t.Error("expected panic for RunOnShards on a serial engine")
		}
	}()
	NewEngine(1).RunOnShards(func(int) {})
}
