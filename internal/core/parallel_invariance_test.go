package core

import (
	"runtime"
	"testing"

	"mplsvpn/internal/sim"
)

// TestWorkerGomaxprocsInvariance is the scheduling-noise gate: for a fixed
// shard count, neither the worker-pool size nor the Go scheduler's
// parallelism (GOMAXPROCS) may change one byte of the fingerprint.
// Oversubscription (8 workers on 1 core, or 1 worker on 8 cores) is
// exactly where racy barrier logic would show, so both axes sweep.
func TestWorkerGomaxprocsInvariance(t *testing.T) {
	sc := equivScenarios()[0]
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var want string
	for _, gmp := range []int{1, 8} {
		runtime.GOMAXPROCS(gmp)
		for _, workers := range []int{1, 2, 8} {
			got := runEquiv(t, sc, 8, workers)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("workers=%d GOMAXPROCS=%d diverged at %s", workers, gmp, diffLine(want, got))
			}
		}
	}
}

// TestUniformQuantumMatchesPairMatrix is the core half of the matrix
// soundness property: forcing the degenerate configuration (a uniform
// quantum equal to the global min-cut delay, which disables the per-pair
// matrix) must reproduce the per-pair run byte for byte. The matrix only
// relaxes synchronization; it never reorders anything observable.
func TestUniformQuantumMatchesPairMatrix(t *testing.T) {
	sc := equivScenarios()[0]

	// Probe the partition once to learn the min-cut delay.
	probe := sc.build()
	pr, err := probe.EnableSharding(ShardingOptions{Shards: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pr.MinCutDelay <= 0 || pr.MinCutDelay == sim.MaxTime {
		t.Fatalf("unusable min-cut delay %v", pr.MinCutDelay)
	}

	run := func(quantum sim.Time) string {
		b := sc.build()
		if _, err := b.EnableSharding(ShardingOptions{Shards: 8, Workers: 4, Quantum: quantum}); err != nil {
			t.Fatal(err)
		}
		sc.traffic(b)
		b.Net.RunUntil(sc.dur)
		return fingerprint(b)
	}

	withMatrix := run(0)           // default: per-pair lookahead matrix
	uniform := run(pr.MinCutDelay) // degenerate: single global bound
	if withMatrix != uniform {
		t.Errorf("per-pair matrix diverged from uniform quantum at %s", diffLine(uniform, withMatrix))
	}
}
