package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Post(30, call(func() { got = append(got, 3) }))
	e.Post(10, call(func() { got = append(got, 1) }))
	e.Post(20, call(func() { got = append(got, 2) }))
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOForSimultaneous(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Post(5, call(func() { got = append(got, i) }))
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events not FIFO at %d: %v", i, got[i])
		}
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Post(100, call(func() {}))
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.Post(50, call(func() {}))
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Post(10, call(func() { got = append(got, 1) }))
	e.Post(20, call(func() { got = append(got, 2) }))
	e.Post(30, call(func() { got = append(got, 3) }))
	e.RunUntil(20)
	if len(got) != 2 {
		t.Fatalf("executed %d events, want 2", len(got))
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	// RunUntil past the last event advances the clock to the deadline.
	e.RunUntil(100)
	if e.Now() != 100 || len(got) != 3 {
		t.Fatalf("Now=%v events=%d, want 100, 3", e.Now(), len(got))
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		if count < 10 {
			e.PostAfter(1, call(reschedule))
		}
	}
	e.PostAfter(1, call(reschedule))
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %v, want 10", e.Now())
	}
}

// Property: events always execute in non-decreasing time order, whatever
// order they are scheduled in.
func TestEngineHeapProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(42)
		var times []Time
		for _, d := range delays {
			at := Time(d)
			e.Post(at, call(func() { times = append(times, e.Now()) }))
		}
		e.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(8)
	same := true
	a2 := NewRand(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandUniformity(t *testing.T) {
	r := NewRand(99)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean of uniform draws = %v, want ~0.5", mean)
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(123)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if mean < 0.98 || mean > 1.02 {
		t.Fatalf("mean of exponential draws = %v, want ~1.0", mean)
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(17)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandFork(t *testing.T) {
	r := NewRand(3)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked streams start identically")
	}
}

func TestTimeHelpers(t *testing.T) {
	if (2 * Second).Duration().Seconds() != 2 {
		t.Fatal("Duration conversion wrong")
	}
	if (1500 * Millisecond).Seconds() != 1.5 {
		t.Fatal("Seconds conversion wrong")
	}
	e := NewEngine(1)
	e.Post(42, call(func() {}))
	if e.Rand() == nil {
		t.Fatal("engine has no rand")
	}
	e.Run()
	if e.Executed() != 1 || e.Now() != 42 {
		t.Fatalf("Executed = %d at %v", e.Executed(), e.Now())
	}
}

func TestAfterNegativePanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.PostAfter(-1, call(func() {}))
}

func TestIntnZeroPanics(t *testing.T) {
	r := NewRand(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Intn(0)
}
