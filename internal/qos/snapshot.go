package qos

import (
	"mplsvpn/internal/packet"
	"mplsvpn/internal/snapshot"
)

// PacketAlloc supplies fresh packets at restore time. Netsim passes its
// pool's allocator so restored queue contents are recycled exactly like
// packets from an uninterrupted run. Saving never calls it.
type PacketAlloc func() *packet.Packet

// State walks the bucket's fill level and refill timestamp (rate and depth
// are configuration).
func (tb *TokenBucket) State(c *snapshot.Codec) {
	c.F64(&tb.tokens)
	snapshot.Int(c, &tb.last)
	c.Bool(&tb.inited)
}

// State walks the marker's bucket levels (rates and depths are
// configuration).
func (m *SrTCM) State(c *snapshot.Codec) {
	m.c.State(c)
	m.e.State(c)
}

// State walks the queue: drop counters, the early-drop policy's dynamic
// state, and the queued packets in FIFO order. Limits and policy thresholds
// are configuration, and the rebuilt queue must carry the same drop policy
// type as the saved one. A load allocates its packets via alloc; a queue
// loaded empty keeps whatever ring it has (none, on a rebuilt scenario that
// has run nothing) and grows one on its first Enqueue.
func (q *Queue) State(c *snapshot.Codec, alloc PacketAlloc) {
	snapshot.Int(c, &q.Enqueued)
	snapshot.Int(c, &q.DroppedFull)
	snapshot.Int(c, &q.DroppedEarly)

	if red, _ := q.Drop.(*RED); c.Same(red != nil, "RED") {
		c.F64(&red.avg)
		snapshot.Int(c, &red.count)
		red.rng.SetState(c.U64(red.rng.State()))
	}

	n := c.Len(q.count, packet.Min)
	if c.Loading() {
		if n > 0 {
			q.pkts = make([]*packet.Packet, n+8)
		} else {
			clear(q.pkts)
		}
		q.head, q.count, q.bytes = 0, n, 0
		q.markOcc()
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		slot := &q.pkts[(q.head+i)%len(q.pkts)]
		if c.Loading() {
			*slot = alloc()
		}
		packet.State(c, *slot)
		if c.Loading() {
			q.bytes += (*slot).Wire()
		}
	}
}

// Scheduler kinds for the snapshot type tag.
const (
	schedFIFO = iota
	schedPriority
	schedWFQ
	schedDRR
	schedHybrid
)

func schedKind(s Scheduler) int {
	switch s.(type) {
	case *FIFOScheduler:
		return schedFIFO
	case *PriorityScheduler:
		return schedPriority
	case *WFQScheduler:
		return schedWFQ
	case *DRRScheduler:
		return schedDRR
	case *HybridScheduler:
		return schedHybrid
	}
	return -1
}

// SchedulerState walks any of the package's scheduler implementations: a
// type tag, the algorithm's dynamic state, then every queue. A load overlays
// a scheduler rebuilt by the scenario, whose concrete type must match the
// saved one.
func SchedulerState(c *snapshot.Codec, s Scheduler, alloc PacketAlloc) {
	if !kindState(c, schedKind(s)) {
		return
	}
	switch sc := s.(type) {
	case *FIFOScheduler:
		sc.q.State(c, alloc)
	case *PriorityScheduler:
		sc.state(c, alloc)
	case *WFQScheduler:
		for i := range sc.finish {
			c.F64(&sc.finish[i])
		}
		c.F64(&sc.vtime)
		sc.state(c, alloc)
	case *DRRScheduler:
		for i := range sc.deficit {
			snapshot.Int(c, &sc.deficit[i])
		}
		snapshot.Int(c, &sc.cursor)
		c.Bool(&sc.granted)
		sc.state(c, alloc)
	case *HybridScheduler:
		sc.efCapState(c)
		sc.tiersState(c, alloc)
	}
}

// kindState walks a scheduler's type tag, which a load must find equal to
// the rebuilt scheduler's kind. It reports whether to walk on.
func kindState(c *snapshot.Codec, kind int) bool {
	if got := int(c.I64(int64(kind))); got != kind && c.Err() == nil {
		c.Mismatch("scheduler kind %d in checkpoint, %d in scenario", got, kind)
	}
	return c.Err() == nil
}

// efCapState walks the fields format v5 gives the hybrid's EF cap, which
// is gone: constant bytes, a zero policed count and no token bucket. A load
// refuses any other record as corrupt. Dropping them needs a format bump.
func (s *HybridScheduler) efCapState(c *snapshot.Codec) {
	policed, capped := c.I64(0), c.Has(false)
	if c.Loaded() && (policed != 0 || capped) {
		c.Corrupt("hybrid: an EF cap record (%d policed, cap %v); the hybrid has no EF cap", policed, capped)
	}
}

// tiersState walks the hybrid's queues and WFQ state as format v5 lays
// them out: the two tiers the hybrid once nested, each a scheduler record
// with its own kind tag and a queue record for all six classes — a
// strict-priority tier, then a WFQ tier with every class's finish time and
// the virtual time. Each tier's records for the classes the other tier
// serves are phantoms: constant bytes, those of an empty queue without
// early drop. Dropping them needs a format bump.
func (s *HybridScheduler) tiersState(c *snapshot.Codec, alloc PacketAlloc) {
	w := &s.wfq
	if !kindState(c, schedPriority) {
		return
	}
	s.tierQueues(c, prioMask, alloc)
	if !kindState(c, schedWFQ) {
		return
	}
	for i := range w.finish {
		c.F64(&w.finish[i])
	}
	c.F64(&w.vtime)
	s.tierQueues(c, ^prioMask, alloc)
}

// tierQueues walks one tier's six queue records in class order: the queue
// of each class in served, a phantom for every other.
func (s *HybridScheduler) tierQueues(c *snapshot.Codec, served uint32, alloc PacketAlloc) {
	for i := range s.wfq.qs {
		if served&(1<<i) != 0 {
			s.wfq.qs[i].State(c, alloc)
		} else {
			phantomQueue(c, Class(i))
		}
	}
}

// phantomQueue walks a phantom queue record: what Queue.State writes for an
// empty queue without early drop — three zero counters, no RED, no
// packets. A load refuses any other record as corrupt.
func phantomQueue(c *snapshot.Codec, class Class) {
	enqueued, full, early := c.I64(0), c.I64(0), c.I64(0)
	red := c.Has(false)
	n := c.U64(0)
	if c.Loaded() && (enqueued != 0 || full != 0 || early != 0 || red || n != 0) {
		c.Corrupt("hybrid: the other tier's record for class %v is not an empty queue", class)
	}
}

// State walks the classifier's per-policy counters and meter levels. The
// policy list itself is configuration, rebuilt by the scenario.
func (cl *Classifier) State(c *snapshot.Codec) {
	// A policy writes three counters and the meter flag.
	if !c.FixedLen(len(cl.Policies), 4, "classifier policies") {
		return
	}
	for _, p := range cl.Policies {
		snapshot.Int(c, &p.Matched)
		snapshot.Int(c, &p.Remarked)
		snapshot.Int(c, &p.Policed)
		if c.Same(p.Meter != nil, "policy meter") {
			p.Meter.State(c)
		}
	}
}
