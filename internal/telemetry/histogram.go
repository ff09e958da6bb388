package telemetry

import (
	"math"
	"slices"

	"mplsvpn/internal/sim"
)

// The grid every Histogram shares. Each power-of-two octave of milliseconds
// [2^(e-1), 2^e) is cut into subBuckets equal buckets, and bucket
// i = e·subBuckets + s covers [(64+s)·2^(e-7), (65+s)·2^(e-7)): math.Frexp
// reads the octave and the sub-bucket off the value, with no bounds table and
// no search. A bucket is 1/64 as wide as its octave's lower edge, so anything
// estimated inside one is within 1/64 of any value it holds. The grid spans
// minMs (2^-25 ms, 30 ps) to maxMs (2^30 ms, 12 days); a value below it —
// zero included — falls in the lowest bucket and one above in the highest.
const (
	subBuckets = 64
	minMs      = 0x1p-25
	maxMs      = 0x1p30
	loIndex    = -24 * subBuckets  // bucketOf(minMs)
	hiIndex    = 31*subBuckets - 1 // bucketOf of the largest value below maxMs
)

// bucketOf returns the grid index of a value in milliseconds.
func bucketOf(v float64) int {
	switch {
	case !(v >= minMs): // below the grid, zero, negative or NaN
		return loIndex
	case v >= maxMs:
		return hiIndex
	}
	frac, exp := math.Frexp(v) // v = frac·2^exp, frac in [0.5, 1)
	return exp*subBuckets + int((frac-0.5)*(2*subBuckets))
}

// edges returns the nominal bounds [lo, hi) of grid bucket i.
func edges(i int) (lo, hi float64) {
	e, s := i>>6, i&(subBuckets-1) // i = 64e + s, floored for a negative i
	return math.Ldexp(float64(subBuckets+s), e-7), math.Ldexp(float64(subBuckets+s+1), e-7)
}

// Histogram is the one latency distribution: a streaming log-linear
// histogram over milliseconds on the fixed grid above, with the exact count,
// sum, min and max kept beside it. Counts are held only for the window of
// buckets observed since the last Reset, so its memory and its checkpoint
// depend on how spread the latencies are, not on how many there were. Once
// the window covers what a stream touches, Observe allocates nothing.
//
// The zero value is empty and ready to use. Every method is safe on a nil
// receiver, which reads as empty: instrumented code holds a nil *Histogram
// when telemetry is disabled.
type Histogram struct {
	base   int      // grid index of counts[0]
	counts []uint64 // the window; empty before the first observation
	n      uint64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram returns an empty histogram. The grid is fixed: the argument
// is ignored and kept for existing callers.
func NewHistogram([]float64) *Histogram { return new(Histogram) }

// Observe records one value in milliseconds.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := bucketOf(v)
	if h.n == 0 {
		h.min, h.max = v, v
		h.base, h.counts = i, append(h.counts[:0], 0)
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
		h.cover(i)
	}
	h.counts[i-h.base]++
	h.n++
	h.sum += v
}

// ObserveDuration records a virtual duration.
func (h *Histogram) ObserveDuration(d sim.Time) { h.Observe(float64(d) / float64(sim.Millisecond)) }

// cover widens the window to take in grid bucket i.
func (h *Histogram) cover(i int) {
	n := len(h.counts)
	switch {
	case i < h.base:
		d := h.base - i
		h.counts = slices.Grow(h.counts, d)[:n+d]
		copy(h.counts[d:], h.counts[:n])
		clear(h.counts[:d])
		h.base = i
	case i >= h.base+n:
		h.counts = slices.Grow(h.counts, i-h.base+1-n)[:i-h.base+1]
		clear(h.counts[n:])
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of the observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the arithmetic mean (0 with no observations).
func (h *Histogram) Mean() float64 {
	if h.Count() == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest observation (0 with none).
func (h *Histogram) Min() float64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 with none).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100): linear
// interpolation between the two closest ranks, each rank estimated inside
// its bucket. Percentile(0) is Min and Percentile(100) is Max exactly, every
// value lies in [Min, Max] and is monotone in p, and for observations inside
// the grid it is within 1/64 (relative) of the exact percentile; a constant
// stream reports its value.
func (h *Histogram) Percentile(p float64) float64 {
	switch {
	case h.Count() == 0:
		return 0
	case p <= 0:
		return h.min
	case p >= 100:
		return h.max
	}
	r := p / 100 * float64(h.n-1)
	k := uint64(r)
	x, f := h.rank(k), r-float64(k)
	if f == 0 {
		return x
	}
	y := h.rank(k + 1)
	return min(max(x*(1-f)+y*f, x), y)
}

// rank estimates the k-th smallest observation (0-based). The ends are the
// exact min and max; between them, the j-th of a bucket's c observations
// sits at (j+½)/c across the bucket, its edges narrowed to [min, max] (the
// lowest and highest buckets have no edge on their open side).
func (h *Histogram) rank(k uint64) float64 {
	if k == 0 {
		return h.min
	}
	if k >= h.n-1 {
		return h.max
	}
	for i, c := range h.counts {
		if k >= c {
			k -= c
			continue
		}
		b := h.base + i
		lo, hi := edges(b)
		if b == loIndex {
			lo = h.min
		}
		if b == hiIndex {
			hi = h.max
		}
		lo, hi = max(lo, h.min), min(hi, h.max)
		return min(lo+(float64(k)+0.5)/float64(c)*(hi-lo), hi)
	}
	return h.max
}

func (h *Histogram) held() bool { return h.n != 0 }

// Reset empties the histogram, keeping the window's storage for reuse (the
// SLA watcher's interval windows reset every interval).
func (h *Histogram) Reset() {
	if h != nil {
		*h = Histogram{counts: h.counts[:0]}
	}
}
