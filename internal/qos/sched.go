package qos

import (
	"math/bits"

	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
)

// Scheduler owns the per-class queues of one egress interface and decides
// which class transmits next. Implementations are the ablation axis of
// experiment E2: FIFO (pure best effort), strict priority, DRR, WFQ, and the
// deployed hybrid (priority for EF/control + WFQ among the rest).
type Scheduler interface {
	// Enqueue places p in the queue for class c; reports acceptance.
	Enqueue(now sim.Time, c Class, p *packet.Packet) bool
	// Dequeue picks the next packet to transmit, or nil if all queues are
	// empty.
	Dequeue(now sim.Time) *packet.Packet
	// Pass offers p to a scheduler that holds nothing (Len() == 0) and
	// takes it straight back: it reports what Enqueue would and leaves the
	// scheduler, its queues' counters and drop policies, and p exactly as
	// Enqueue followed by Dequeue would, without a ring or another class's
	// queue being touched. An idle port uses it (netsim.enqueue); on a
	// scheduler holding a packet it is undefined.
	Pass(now sim.Time, c Class, p *packet.Packet) bool
	// Len returns the total number of queued packets.
	Len() int
	// Bytes returns the total bytes those packets put on the wire.
	Bytes() int
	// ClassQueue exposes the queue backing class c (for occupancy stats,
	// drop counters and policies), making the scheduler's queues if it has
	// not yet; may return nil for schedulers without per-class queues.
	ClassQueue(c Class) *Queue
}

// ---------------------------------------------------------------------------
// FIFO

// FIFOScheduler is a single shared queue: the pure best-effort baseline in
// which "IP applications today have no direct mechanism to specify QoS"
// (§2.2). All classes share fate.
type FIFOScheduler struct {
	q Queue
}

// NewFIFO builds a FIFO scheduler with one shared queue of limitBytes.
func NewFIFO(limitBytes int) *FIFOScheduler {
	return &FIFOScheduler{q: Queue{LimitBytes: limitBytes}}
}

// Enqueue ignores the class.
func (s *FIFOScheduler) Enqueue(now sim.Time, _ Class, p *packet.Packet) bool {
	return s.q.Enqueue(now, p)
}

// Dequeue pops the shared queue.
func (s *FIFOScheduler) Dequeue(sim.Time) *packet.Packet { return s.q.Dequeue() }

// Pass admits p to the shared queue without queueing it.
func (s *FIFOScheduler) Pass(now sim.Time, _ Class, p *packet.Packet) bool { return s.q.admit(now, p) }

// Len returns the shared queue length.
func (s *FIFOScheduler) Len() int { return s.q.Len() }

// Bytes returns the shared queue's bytes.
func (s *FIFOScheduler) Bytes() int { return s.q.Bytes() }

// ClassQueue returns the single shared queue for every class.
func (s *FIFOScheduler) ClassQueue(Class) *Queue { return &s.q }

// ---------------------------------------------------------------------------
// Per-class queues

// classQueues is what every multi-queue scheduler holds of its queues: the
// byte limit New gave them and, from the port's first packet on, the block
// that holds them. Most ports of a provider build never carry a packet, so
// an idle scheduler is its configuration alone and its queues cost nothing.
type classQueues struct {
	*queueBlock // nil until the first Pass, Enqueue or ClassQueue
	limit       int
}

// queueBlock is a multi-queue scheduler's dynamic state: one queue per
// class, the occupancy mask those queues keep current (bit c set exactly
// while class c holds a packet), so Dequeue and Len visit only the
// backlogged classes, and the state of the algorithm serving them. It is
// made once and never moves, so the pointers ClassQueue hands out stay
// valid for the scheduler's lifetime.
type queueBlock struct {
	qs   [NumClasses]Queue
	busy uint32
	// WFQ's: each class's virtual finish time, and the system virtual time.
	finish [NumClasses]float64
	vtime  float64
	// DRR's: each class's deficit, the class the round is at, and whether
	// that class has had its quantum this visit.
	deficit [NumClasses]int
	cursor  int
	granted bool
}

// queues returns the block, making it on first use.
func (cq *classQueues) queues() *queueBlock {
	if cq.queueBlock == nil {
		cq.makeQueues()
	}
	return cq.queueBlock
}

// makeQueues makes the block. It stays out of line: queues is inlined on
// every packet's path, and the block is made once a port.
//
//go:noinline
func (cq *classQueues) makeQueues() {
	cq.queueBlock = new(queueBlock)
	cq.setup(cq.limit)
}

// setup gives every class queue the byte limit and points it at the
// block's occupancy mask, which it sets from what the queues hold. The
// queues report into busy, so the block must not be copied afterwards.
func (b *queueBlock) setup(limit int) {
	for i := range b.qs {
		q := &b.qs[i]
		q.LimitBytes, q.occ, q.bit = limit, &b.busy, 1<<i
		q.markOcc()
	}
}

// Len sums the backlogged class queues.
func (cq *classQueues) Len() int {
	n := 0
	if b := cq.queueBlock; b != nil {
		for m := b.busy; m != 0; m &= m - 1 {
			n += b.qs[bits.TrailingZeros32(m)].count
		}
	}
	return n
}

// Bytes sums the bytes the backlogged class queues hold.
func (cq *classQueues) Bytes() int {
	n := 0
	if b := cq.queueBlock; b != nil {
		for m := b.busy; m != 0; m &= m - 1 {
			n += b.qs[bits.TrailingZeros32(m)].bytes
		}
	}
	return n
}

// ClassQueue returns the queue for class c.
func (cq *classQueues) ClassQueue(c Class) *Queue { return &cq.queues().qs[c] }

// ---------------------------------------------------------------------------
// Strict priority

// PriorityScheduler serves classes in strict priority order (lower Class
// index first). Starvation of low classes under overload is intentional and
// shows up in the E2 ablation.
type PriorityScheduler struct {
	classQueues
}

// NewPriority builds a strict-priority scheduler with one queue of
// limitBytes per class.
func NewPriority(limitBytes int) *PriorityScheduler {
	return &PriorityScheduler{classQueues{limit: limitBytes}}
}

// Enqueue places p in its class queue.
func (s *PriorityScheduler) Enqueue(now sim.Time, c Class, p *packet.Packet) bool {
	return s.queues().qs[c].Enqueue(now, p)
}

// Dequeue serves the highest-priority non-empty queue.
func (s *PriorityScheduler) Dequeue(sim.Time) *packet.Packet {
	if b := s.queueBlock; b != nil && b.busy != 0 {
		return b.qs[bits.TrailingZeros32(b.busy)].Dequeue()
	}
	return nil
}

// Pass admits p to its class queue without queueing it.
func (s *PriorityScheduler) Pass(now sim.Time, c Class, p *packet.Packet) bool {
	return s.queues().qs[c].admit(now, p)
}

// ---------------------------------------------------------------------------
// Weighted fair queueing

// WFQScheduler approximates GPS with per-class virtual finish times
// (self-clocked fair queueing). Each class receives bandwidth in proportion
// to its weight when backlogged.
type WFQScheduler struct {
	classQueues
	weights [NumClasses]float64
}

// NewWFQ builds a WFQ scheduler. weights[c] is the bandwidth share of class
// c; zero-weight classes get a minimal share rather than starving.
func NewWFQ(limitBytes int, weights [NumClasses]float64) *WFQScheduler {
	s := &WFQScheduler{}
	s.init(limitBytes, weights)
	return s
}

// init sets the scheduler up in place.
func (s *WFQScheduler) init(limitBytes int, weights [NumClasses]float64) {
	s.limit, s.weights = limitBytes, weights
	for i := range s.weights {
		if s.weights[i] <= 0 {
			s.weights[i] = 0.01
		}
	}
}

// Enqueue stamps the packet's virtual finish time via its class state.
func (s *WFQScheduler) Enqueue(now sim.Time, c Class, p *packet.Packet) bool {
	b := s.queues()
	if !b.qs[c].Enqueue(now, p) {
		return false
	}
	s.stamp(b, c, p)
	return true
}

// stamp advances class c's virtual finish time past p.
func (s *WFQScheduler) stamp(b *queueBlock, c Class, p *packet.Packet) {
	start := b.finish[c]
	if b.vtime > start {
		start = b.vtime
	}
	b.finish[c] = start + float64(p.Wire())/s.weights[c]
}

// Pass admits and stamps p, then serves it: alone in the scheduler it is
// the head that finishes earliest, with nothing queued behind it, so
// virtual time moves to its finish.
func (s *WFQScheduler) Pass(now sim.Time, c Class, p *packet.Packet) bool {
	b := s.queues()
	if !b.qs[c].admit(now, p) {
		return false
	}
	s.stamp(b, c, p)
	b.vtime = b.finish[c]
	return true
}

// Dequeue serves the backlogged class whose *head* packet finishes earliest
// in virtual time. Because per-class queues are FIFO, tracking cumulative
// finish times per class suffices.
func (s *WFQScheduler) Dequeue(sim.Time) *packet.Packet {
	if b := s.queueBlock; b != nil {
		return s.dequeue(b, b.busy)
	}
	return nil
}

// dequeue is Dequeue over the backlogged classes in mask alone.
func (s *WFQScheduler) dequeue(b *queueBlock, mask uint32) *packet.Packet {
	best := -1
	var bestFinish float64
	for m := mask; m != 0; m &= m - 1 {
		c := bits.TrailingZeros32(m)
		q := &b.qs[c]
		// Head finish time = finish[c] - (bytes queued behind head)/weight.
		behind := float64(q.bytes-q.pkts[q.head].Wire()) / s.weights[c]
		f := b.finish[c] - behind
		if best < 0 || f < bestFinish {
			best, bestFinish = c, f
		}
	}
	if best < 0 {
		return nil
	}
	b.vtime = bestFinish
	return b.qs[best].Dequeue()
}

// ---------------------------------------------------------------------------
// Deficit round robin

// DRRScheduler is deficit round robin: an O(1) approximation of fair
// queueing. Quanta are per-class byte allowances per round.
type DRRScheduler struct {
	classQueues
	quantum [NumClasses]int
}

// NewDRR builds a DRR scheduler; quantum[c] is the byte allowance class c
// receives each round (≥ MTU for work-conserving behaviour).
func NewDRR(limitBytes int, quantum [NumClasses]int) *DRRScheduler {
	s := &DRRScheduler{classQueues: classQueues{limit: limitBytes}, quantum: quantum}
	for i := range s.quantum {
		if s.quantum[i] <= 0 {
			s.quantum[i] = 100
		}
	}
	return s
}

// Enqueue places p in its class queue.
func (s *DRRScheduler) Enqueue(now sim.Time, c Class, p *packet.Packet) bool {
	return s.queues().qs[c].Enqueue(now, p)
}

// Dequeue serves queues round-robin, letting each spend its deficit.
func (s *DRRScheduler) Dequeue(sim.Time) *packet.Packet {
	b := s.queueBlock
	if b == nil || b.busy == 0 {
		return nil
	}
	for {
		c := Class(b.cursor % int(NumClasses))
		q := &b.qs[c]
		if b.busy&(1<<c) == 0 {
			b.deficit[c] = 0
			b.cursor++
			b.granted = false
			continue
		}
		if !b.granted {
			b.deficit[c] += s.quantum[c]
			b.granted = true
		}
		if head := q.Head(); head.Wire() <= b.deficit[c] {
			b.deficit[c] -= head.Wire()
			p := q.Dequeue()
			if q.Len() == 0 {
				b.deficit[c] = 0
				b.cursor++
				b.granted = false
			}
			return p
		}
		// Deficit exhausted for this visit: move on, keeping the residue.
		b.cursor++
		b.granted = false
	}
}

// Pass is the pair itself: the cursor's walk to class c and the deficit it
// grants on the way are the state a later backlog starts from.
func (s *DRRScheduler) Pass(now sim.Time, c Class, p *packet.Packet) bool {
	return s.Enqueue(now, c, p) && s.Dequeue(now) != nil
}

// ---------------------------------------------------------------------------
// Hybrid: strict priority for control/voice, WFQ for the rest

// HybridScheduler is the deployed configuration of the paper's architecture:
// network control and EF voice are served at strict priority (bounded by an
// EF policer upstream so they cannot starve the link), while business,
// assured, and best-effort classes share the remainder via WFQ.
//
// It is one WFQ scheduler, one set of class queues, whose priority classes
// skip the fair share: Dequeue serves the lowest backlogged class under
// prioMask first, and the WFQ head-finish scan ranges the other classes
// alone. A priority class's packets are never stamped, so its finish time
// stays zero.
type HybridScheduler struct {
	wfq WFQScheduler
}

// prioMask holds the occupancy bits of the classes the hybrid serves at
// strict priority.
const prioMask uint32 = 1<<ClassNetworkControl | 1<<ClassVoice

// NewHybrid builds the hybrid scheduler. wfqWeights applies to the
// non-priority classes; entries for control/voice are ignored.
func NewHybrid(limitBytes int, wfqWeights [NumClasses]float64) *HybridScheduler {
	s := &HybridScheduler{}
	s.wfq.init(limitBytes, wfqWeights)
	return s
}

func isPriorityClass(c Class) bool { return prioMask&(1<<c) != 0 }

// Enqueue queues a priority class's packet as it is and stamps any other
// class's for the fair share.
func (s *HybridScheduler) Enqueue(now sim.Time, c Class, p *packet.Packet) bool {
	if isPriorityClass(c) {
		return s.wfq.queues().qs[c].Enqueue(now, p)
	}
	return s.wfq.Enqueue(now, c, p)
}

// Pass admits a priority class's packet to its queue, and passes any other
// class's through the fair share.
func (s *HybridScheduler) Pass(now sim.Time, c Class, p *packet.Packet) bool {
	if isPriorityClass(c) {
		return s.wfq.queues().qs[c].admit(now, p)
	}
	return s.wfq.Pass(now, c, p)
}

// Dequeue serves the priority classes first, then WFQ among the rest.
func (s *HybridScheduler) Dequeue(sim.Time) *packet.Packet {
	b := s.wfq.queueBlock
	if b == nil {
		return nil
	}
	if m := b.busy & prioMask; m != 0 {
		return b.qs[bits.TrailingZeros32(m)].Dequeue()
	}
	return s.wfq.dequeue(b, b.busy&^prioMask)
}

// Len sums the class queues.
func (s *HybridScheduler) Len() int { return s.wfq.Len() }

// Bytes sums the bytes the class queues hold.
func (s *HybridScheduler) Bytes() int { return s.wfq.Bytes() }

// ClassQueue returns the queue for class c.
func (s *HybridScheduler) ClassQueue(c Class) *Queue { return s.wfq.ClassQueue(c) }
