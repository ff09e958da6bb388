package qos

import (
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
)

// DropPolicy decides whether an arriving packet is dropped instead of being
// enqueued. Implementations: TailDrop, RED.
type DropPolicy interface {
	// ShouldDrop is consulted before enqueue. queueBytes/queuePkts describe
	// the queue occupancy *before* this packet.
	ShouldDrop(now sim.Time, p *packet.Packet, queueBytes, queuePkts int) bool
}

// TailDrop drops only when the queue is full; the limit lives in the Queue
// itself, so TailDrop never drops on its own.
type TailDrop struct{}

// ShouldDrop always returns false: tail-drop behaviour is the queue's
// byte/packet limit.
func (TailDrop) ShouldDrop(sim.Time, *packet.Packet, int, int) bool { return false }

// RED is Random Early Detection (Floyd & Jacobson 1993) over the queue's
// byte occupancy, with the standard EWMA average and linear drop-probability
// ramp between MinBytes and MaxBytes. WRED is built from one RED instance
// per drop precedence.
type RED struct {
	MinBytes int
	MaxBytes int
	MaxP     float64 // drop probability at MaxBytes
	Weight   float64 // EWMA weight, typically 0.002..0.2

	avg   float64
	count int // packets since last drop, for the 1/(1-count*p) spread
	rng   *sim.Rand
}

// NewRED returns a RED policy with the given thresholds.
func NewRED(minBytes, maxBytes int, maxP float64, rng *sim.Rand) *RED {
	return &RED{MinBytes: minBytes, MaxBytes: maxBytes, MaxP: maxP, Weight: 0.02, rng: rng}
}

// ShouldDrop implements the RED early-drop decision.
func (r *RED) ShouldDrop(_ sim.Time, p *packet.Packet, queueBytes, _ int) bool {
	r.avg = (1-r.Weight)*r.avg + r.Weight*float64(queueBytes)
	switch {
	case r.avg < float64(r.MinBytes):
		r.count = 0
		return false
	case r.avg >= float64(r.MaxBytes):
		r.count = 0
		return true
	default:
		pb := r.MaxP * (r.avg - float64(r.MinBytes)) / float64(r.MaxBytes-r.MinBytes)
		r.count++
		pa := pb / (1 - float64(r.count)*pb)
		if pa < 0 || pa > 1 {
			pa = 1
		}
		if r.rng.Float64() < pa {
			r.count = 0
			return true
		}
		return false
	}
}

// Queue is a byte- and packet-limited FIFO with a pluggable early-drop
// policy. One Queue backs each forwarding class at an egress interface.
type Queue struct {
	LimitBytes int
	LimitPkts  int
	Drop       DropPolicy

	// Ring buffer: pkts[head..head+count) modulo len(pkts). A slice that
	// only ever pops from the front (q.pkts = q.pkts[1:]) strands its
	// backing array and re-allocates forever; the ring recirculates one
	// allocation for the life of the queue.
	pkts  []*packet.Packet
	head  int
	count int
	bytes int

	// Counters for the experiment reports.
	Enqueued     int
	DroppedFull  int
	DroppedEarly int

	// Telemetry counters, bound by netsim when telemetry is enabled. Nil
	// (the default) makes the increments no-ops, so the hot path pays
	// nothing when telemetry is off.
	TelDropFull  *telemetry.Counter
	TelDropEarly *telemetry.Counter
}

// NewQueue builds a queue with the given limits and tail-drop behaviour.
func NewQueue(limitBytes, limitPkts int) *Queue {
	return &Queue{LimitBytes: limitBytes, LimitPkts: limitPkts, Drop: TailDrop{}}
}

// Len returns the number of queued packets.
func (q *Queue) Len() int { return q.count }

// Bytes returns the queued byte count.
func (q *Queue) Bytes() int { return q.bytes }

// admit is everything Enqueue decides and counts before the ring is
// touched: the limits, the drop policy, the arrival stamp. On an empty
// queue it is also all that Enqueue followed at once by Dequeue leaves
// behind, which is what the schedulers' Pass is made of.
func (q *Queue) admit(now sim.Time, p *packet.Packet) bool {
	if (q.LimitBytes > 0 && q.bytes+p.Wire() > q.LimitBytes) ||
		(q.LimitPkts > 0 && q.count+1 > q.LimitPkts) {
		q.DroppedFull++
		q.TelDropFull.Inc()
		return false
	}
	if q.Drop != nil && q.Drop.ShouldDrop(now, p, q.bytes, q.count) {
		q.DroppedEarly++
		q.TelDropEarly.Inc()
		return false
	}
	p.EnqueuedAt = now
	q.Enqueued++
	return true
}

// Enqueue appends p unless a limit or the drop policy rejects it. It
// reports whether the packet was accepted.
func (q *Queue) Enqueue(now sim.Time, p *packet.Packet) bool {
	if !q.admit(now, p) {
		return false
	}
	if q.count == len(q.pkts) {
		q.grow()
	}
	q.pkts[(q.head+q.count)%len(q.pkts)] = p
	q.count++
	q.bytes += p.Wire()
	return true
}

// grow doubles the ring, unrolling the wrapped contents into order. It runs
// only until the ring reaches the queue's working set, then never again.
func (q *Queue) grow() {
	next := make([]*packet.Packet, 2*len(q.pkts)+8)
	for i := 0; i < q.count; i++ {
		next[i] = q.pkts[(q.head+i)%len(q.pkts)]
	}
	q.pkts = next
	q.head = 0
}

// Dequeue removes and returns the head packet, or nil when empty.
func (q *Queue) Dequeue() *packet.Packet {
	if q.count == 0 {
		return nil
	}
	p := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head = (q.head + 1) % len(q.pkts)
	q.count--
	q.bytes -= p.Wire()
	return p
}

// Head returns the head packet without removing it, or nil when empty.
func (q *Queue) Head() *packet.Packet {
	if q.count == 0 {
		return nil
	}
	return q.pkts[q.head]
}
