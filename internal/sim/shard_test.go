package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// buildPingPong wires a synthetic workload over nShards shard clocks: each
// shard runs a local ticker, and every third tick hands a message to the
// next shard with a delay of exactly the quantum. Every action appends to
// a trace through Defer, so the trace order exercises the deterministic
// (time, shard, seq) barrier dispatch. Times are offset per shard so the
// expected trace is unambiguous.
func buildPingPong(e *Engine, nShards int, trace *[]string) {
	for i := 0; i < nShards; i++ {
		s := e.Queue(i)
		id := i
		var tick func(k int)
		tick = func(k int) {
			if k >= 9 {
				return
			}
			now := s.Now()
			s.Defer(funcAction(func() {
				*trace = append(*trace, fmt.Sprintf("%v shard%d tick%d", now, id, k))
			}))
			if k%3 == 2 {
				dst := e.Queue((id + 1) % nShards)
				s.Handoff(dst, 5*Millisecond, funcAction(func() {
					at := dst.Now()
					dst.Defer(funcAction(func() {
						*trace = append(*trace, fmt.Sprintf("%v shard%d got msg from shard%d", at, (id+1)%nShards, id))
					}))
				}))
			}
			s.After(Millisecond, func() { tick(k + 1) })
		}
		s.Schedule(Time(id)*100*Microsecond, func() { tick(0) })
	}
}

func runPingPong(nShards, workers int) []string {
	e := NewEngine(1)
	e.EnableShards(nShards, 5*Millisecond, workers)
	var trace []string
	buildPingPong(e, nShards, &trace)
	e.Run()
	return trace
}

// TestShardedDeterminismAcrossWorkers is the engine-level core of the
// equivalence harness: the trace must be byte-identical however many
// workers drain the shards.
func TestShardedDeterminismAcrossWorkers(t *testing.T) {
	want := runPingPong(4, 1)
	if len(want) == 0 {
		t.Fatal("empty trace")
	}
	for _, workers := range []int{2, 4, 8} {
		got := runPingPong(4, workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d trace diverged:\n got %v\nwant %v", workers, got, want)
		}
	}
}

// TestShardedRepeatable pins same-seed same-config repeatability (the
// property the experiment harness depends on).
func TestShardedRepeatable(t *testing.T) {
	a := runPingPong(3, 3)
	b := runPingPong(3, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config diverged:\n%v\n%v", a, b)
	}
}

// TestGlobalBandBarriers checks that a global event observes every shard
// event before it and none after: globals are barriers.
func TestGlobalBandBarriers(t *testing.T) {
	e := NewEngine(1)
	e.EnableShards(2, Millisecond, 2)
	var shardEvents int
	for i := 0; i < 2; i++ {
		s := e.Queue(i)
		for k := 1; k <= 10; k++ {
			at := Time(k) * Millisecond
			s.Schedule(at, func() {}) // data event
			s.Schedule(at, func() {
				s.Defer(funcAction(func() { shardEvents++ }))
			})
		}
	}
	var seenAt5, seenAt50 int
	e.Schedule(5*Millisecond+1, func() { seenAt5 = shardEvents })
	e.Schedule(50*Millisecond, func() { seenAt50 = shardEvents })
	e.Run()
	if seenAt5 != 2*5 {
		t.Errorf("global at 5ms saw %d shard notifications, want 10", seenAt5)
	}
	if seenAt50 != 2*10 {
		t.Errorf("global at 50ms saw %d shard notifications, want 20", seenAt50)
	}
}

// TestHandoffBelowQuantumPanics: violating the conservative lookahead
// during a segment must be a hard error, not a silent determinism bug.
func TestHandoffBelowQuantumPanics(t *testing.T) {
	e := NewEngine(1)
	e.EnableShards(2, Millisecond, 1)
	s0, s1 := e.Queue(0), e.Queue(1)
	s0.Schedule(Millisecond, func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("expected panic for handoff below quantum")
			} else if !strings.Contains(fmt.Sprint(r), "lookahead") {
				t.Errorf("unexpected panic: %v", r)
			}
		}()
		s0.Handoff(s1, Microsecond, funcAction(func() {}))
	})
	e.Run()
}

// TestShardSchedulePastPanicsDuringDrain mirrors the serial engine's
// scheduling-in-the-past panic.
func TestShardSchedulePastPanicsDuringDrain(t *testing.T) {
	e := NewEngine(1)
	e.EnableShards(1, Millisecond, 1)
	s := e.Queue(0)
	s.Schedule(Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for past schedule during drain")
			}
		}()
		s.Schedule(0, func() {})
	})
	e.Run()
}

// TestStepPanicsWhenSharded: Step is a serial primitive.
func TestStepPanicsWhenSharded(t *testing.T) {
	e := NewEngine(1)
	e.EnableShards(2, Millisecond, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic from Step on sharded engine")
		}
	}()
	e.Step()
}

// TestShardedRunUntil: events at the deadline run, later events stay, and
// all clocks land on the deadline.
func TestShardedRunUntil(t *testing.T) {
	e := NewEngine(1)
	e.EnableShards(2, Millisecond, 2)
	var ran []string
	e.Queue(0).Schedule(10*Millisecond, func() { ran = append(ran, "at-deadline") })
	e.Queue(1).Schedule(10*Millisecond+1, func() { ran = append(ran, "late") })
	e.RunUntil(10 * Millisecond)
	if !reflect.DeepEqual(ran, []string{"at-deadline"}) {
		t.Fatalf("ran %v, want [at-deadline]", ran)
	}
	if e.Now() != 10*Millisecond {
		t.Errorf("engine clock %v, want 10ms", e.Now())
	}
	for i := 0; i < 2; i++ {
		if got := e.Queue(i).Now(); got != 10*Millisecond {
			t.Errorf("shard %d clock %v, want 10ms", i, got)
		}
	}
	if e.Pending() != 1 {
		t.Errorf("pending %d, want 1", e.Pending())
	}
	e.RunUntil(11 * Millisecond)
	if len(ran) != 2 {
		t.Errorf("late event did not run on the second RunUntil")
	}
}

// TestOnBarrierMergesEveryBarrier: the hook runs between segments, often
// enough that a global observer never sees a stale total.
func TestOnBarrierMerges(t *testing.T) {
	e := NewEngine(1)
	e.EnableShards(2, Millisecond, 2)
	var cells [2]int
	total := 0
	e.OnBarrier(func() {
		for i := range cells {
			total += cells[i]
			cells[i] = 0
		}
	})
	for i := 0; i < 2; i++ {
		s := e.Queue(i)
		cell := &cells[i]
		for k := 1; k <= 4; k++ {
			s.Schedule(Time(k)*Millisecond, func() { *cell++ })
		}
	}
	checked := false
	e.Schedule(2*Millisecond+1, func() {
		// Both shards have executed their 1ms and 2ms events by this
		// barrier; the merge hook must have folded all 4.
		if total != 4 {
			t.Errorf("global saw merged total %d, want 4", total)
		}
		checked = true
	})
	e.Run()
	if !checked {
		t.Fatal("global checkpoint never ran")
	}
	if total != 8 {
		t.Errorf("final merged total %d, want 8", total)
	}
}

// TestExecutedPendingSumShards: diagnostics aggregate across shards.
func TestExecutedPendingSumShards(t *testing.T) {
	e := NewEngine(1)
	e.EnableShards(2, Millisecond, 1)
	e.Queue(0).Schedule(Millisecond, func() {})
	e.Queue(1).Schedule(Millisecond, func() {})
	e.Schedule(Millisecond, func() {})
	if e.Pending() != 3 {
		t.Fatalf("pending %d, want 3", e.Pending())
	}
	e.Run()
	if e.Executed() != 3 {
		t.Fatalf("executed %d, want 3", e.Executed())
	}
}

// A handoff sent between runs sits in its slab, not in any heap, until the
// next barrier; a checkpoint walk taken first must still see it, with the
// sequence number the next run would have given it.
func TestWalkPendingSeesUnmergedHandoffs(t *testing.T) {
	e := NewEngine(1)
	e.EnableShards(2, Millisecond, 1)
	act := &nopAction{}
	e.Queue(1).Post(5*Millisecond, act)
	e.Queue(0).Handoff(e.Queue(1), 2*Millisecond, act)
	var seen []PendingEvent
	e.WalkPending(func(pe PendingEvent) { seen = append(seen, pe) })
	if len(seen) != 2 || seen[0].Shard != 1 || seen[0].At != 2*Millisecond || seen[0].Seq != 1 || seen[1].Seq != 0 {
		t.Fatalf("walk saw %+v, want the handoff (shard 1, 2ms, seq 1) then the local post (seq 0)", seen)
	}
	e.Run()
	if act.ran != 2 {
		t.Fatalf("%d of 2 events ran", act.ran)
	}
}
