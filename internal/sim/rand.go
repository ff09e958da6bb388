package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random number generator based
// on SplitMix64. Every component in the simulator that needs randomness takes
// a *Rand so that a single seed reproduces an entire run bit-for-bit.
//
// math/rand would also work, but a local implementation keeps the stream
// format stable across Go releases, which matters for recorded experiment
// output.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Fork derives an independent generator from the current stream. Use it to
// give each traffic source its own stream so adding a source does not
// perturb the others.
func (r *Rand) Fork() *Rand {
	return NewRand(r.Uint64())
}

// State returns the generator's internal state for checkpointing.
func (r *Rand) State() uint64 { return r.state }

// SetState overwrites the generator's internal state; the next draw after
// SetState(s) equals the next draw any generator with state s would produce.
func (r *Rand) SetState(s uint64) { r.state = s }
