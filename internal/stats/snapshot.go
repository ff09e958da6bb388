package stats

import "mplsvpn/internal/snapshot"

// State walks the sample: every retained observation (in current storage
// order) plus the exact aggregates and decimation state.
func (s *Sample) State(c *snapshot.Codec) {
	c.F64s(&s.xs)
	c.Bool(&s.sorted)
	c.F64(&s.sum)
	snapshot.Int(c, &s.n)
	c.F64(&s.min)
	c.F64(&s.max)
	snapshot.Int(c, &s.cap)
	snapshot.Int(c, &s.stride)
	snapshot.Int(c, &s.skip)
	snapshot.Int(c, &s.dropped)
}

// State walks the jitter estimator.
func (j *Jitter) State(c *snapshot.Codec) {
	snapshot.Int(c, &j.lastTransit)
	c.Bool(&j.have)
	c.F64(&j.j)
	snapshot.Int(c, &j.n)
}

// State walks the flow's counters and distributions. Name is identity, kept
// by the owner.
func (f *FlowStats) State(c *snapshot.Codec) {
	snapshot.Int(c, &f.Sent)
	snapshot.Int(c, &f.Delivered)
	snapshot.Int(c, &f.Dropped)
	snapshot.Int(c, &f.Bytes)
	f.Latency.State(c)
	f.Jit.State(c)
	snapshot.Int(c, &f.first)
	snapshot.Int(c, &f.last)
	c.Bool(&f.haveTime)
}
