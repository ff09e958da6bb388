package qos

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"

	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/telemetry"
)

// A port's scheduler is one allocation, its class queues included: the
// queues' rings come later, on first use. Every port carries a hybrid, which
// holds one set of six queues and fits the 896-byte size class.
func TestSchedulerIsOneAllocation(t *testing.T) {
	if size := unsafe.Sizeof(HybridScheduler{}); size > 896 {
		t.Errorf("a hybrid scheduler is %d bytes, want at most 896", size)
	}
	var weights [NumClasses]float64
	var quanta [NumClasses]int
	for c := range weights {
		weights[c], quanta[c] = 1, 1500
	}
	for name, build := range map[string]func() Scheduler{
		"fifo":     func() Scheduler { return NewFIFO(6000) },
		"priority": func() Scheduler { return NewPriority(6000) },
		"wfq":      func() Scheduler { return NewWFQ(6000, weights) },
		"drr":      func() Scheduler { return NewDRR(6000, quanta) },
		"hybrid":   func() Scheduler { return NewHybrid(6000, weights) },
	} {
		if got := testing.AllocsPerRun(10, func() { build() }); got != 1 {
			t.Errorf("%s: building the scheduler took %v allocations, want 1", name, got)
		}
	}
}

// occupancies returns the per-class queue sets of a scheduler, whose masks
// must mirror their queues' counts.
func occupancies(s Scheduler) []*classQueues {
	switch sc := s.(type) {
	case *PriorityScheduler:
		return []*classQueues{&sc.classQueues}
	case *WFQScheduler:
		return []*classQueues{&sc.classQueues}
	case *DRRScheduler:
		return []*classQueues{&sc.classQueues}
	case *HybridScheduler:
		return []*classQueues{&sc.wfq.classQueues}
	}
	return nil
}

// The occupancy mask holds bit c exactly while class c's queue holds a
// packet, whatever changed the queue: the scheduler's Enqueue, Dequeue and
// Pass, a caller holding the queue from ClassQueue, or a checkpoint load.
// Len is the sum of the class queues, and a scheduler reporting empty
// serves nothing.
func TestOccupancyMaskFollowsEveryMutation(t *testing.T) {
	for name, s := range passRigs() {
		rng := sim.NewRand(11)
		now := sim.Time(0)
		for i := 0; i < 5000; i++ {
			now += sim.Time(rng.Intn(100)) * sim.Microsecond
			c := Class(rng.Intn(int(NumClasses)))
			p := &packet.Packet{Payload: 60 + rng.Intn(1400)}
			switch op := rng.Intn(8); {
			case op < 3:
				s.Enqueue(now, c, p)
			case op < 5:
				s.Dequeue(now)
			case op == 5:
				if s.Len() == 0 {
					s.Pass(now, c, p)
				}
			case op == 6:
				// Behind the scheduler's back.
				if rng.Intn(2) == 0 {
					s.ClassQueue(c).Enqueue(now, p)
				} else {
					s.ClassQueue(c).Dequeue()
				}
			default:
				// A reload of the scheduler's own state over itself.
				data := schedBytes(s)
				if err := snapshot.Load(snapshot.NewReader(data), func(cd *snapshot.Codec) {
					SchedulerState(cd, s, func() *packet.Packet { return &packet.Packet{} })
				}); err != nil {
					t.Fatalf("%s op %d: reload: %v", name, i, err)
				}
			}
			total := 0
			for _, cq := range occupancies(s) {
				for c := range cq.qs {
					if held, bit := cq.qs[c].count > 0, cq.busy&(1<<c) != 0; held != bit {
						t.Fatalf("%s op %d: class %d holds %d packets, mask bit %v", name, i, c, cq.qs[c].count, bit)
					}
					total += cq.qs[c].count
				}
			}
			if name != "fifo" && s.Len() != total {
				t.Fatalf("%s op %d: Len %d, the queues hold %d", name, i, s.Len(), total)
			}
		}
	}
}

// ClassQueue hands out pointers into the scheduler itself, so netsim's
// telemetry binding — a drop counter set on each class queue when the port
// is built — lives exactly as long as the scheduler: a checkpoint load
// rewrites the queues' contents in place, and the pointers, the counters
// bound through them and the occupancy all carry on.
func TestClassQueuesSurviveRestore(t *testing.T) {
	var weights [NumClasses]float64
	for c := range weights {
		weights[c] = float64(1 + c)
	}
	orig := NewHybrid(3000, weights)
	for i := 0; i < 12; i++ {
		orig.Enqueue(sim.Time(i), Class(i%int(NumClasses)), &packet.Packet{Payload: 100 + i, Seq: uint64(i)})
	}
	orig.Dequeue(20) // control's head: the priority tier is not empty
	data := schedBytes(orig)

	rebuilt := NewHybrid(3000, weights)
	reg := telemetry.NewRegistry()
	var queues [NumClasses]*Queue
	var full [NumClasses]*telemetry.Counter
	for c := Class(0); c < NumClasses; c++ {
		queues[c] = rebuilt.ClassQueue(c)
		full[c] = reg.Counter("queue_dropped_full_pkts", telemetry.Labels{Class: c.String()})
		queues[c].TelDropFull = full[c]
	}
	if err := snapshot.Load(snapshot.NewReader(data), func(cd *snapshot.Codec) {
		SchedulerState(cd, rebuilt, func() *packet.Packet { return &packet.Packet{} })
	}); err != nil {
		t.Fatal(err)
	}
	for c := Class(0); c < NumClasses; c++ {
		if q := rebuilt.ClassQueue(c); q != queues[c] || q.TelDropFull != full[c] {
			t.Fatalf("class %v: the queue or its bound counter changed across the load", c)
		}
	}
	if rebuilt.Len() != orig.Len() || rebuilt.Len() != 11 {
		t.Fatalf("Len %d after the load, %d saved", rebuilt.Len(), orig.Len())
	}
	// A drop after the load counts on the counter bound before it.
	if rebuilt.Enqueue(30, ClassBestEffort, &packet.Packet{Payload: 4000}) || full[ClassBestEffort].Value() != 1 {
		t.Fatalf("an oversize packet after the load: counter %d, want 1", full[ClassBestEffort].Value())
	}
	for {
		a, b := orig.Dequeue(40), rebuilt.Dequeue(40)
		if (a == nil) != (b == nil) || (a != nil && a.Seq != b.Seq) {
			t.Fatalf("service order differs after the load: %+v and %+v", a, b)
		}
		if a == nil {
			break
		}
	}
}

// Loading an idle scheduler allocates nothing: an empty class queue keeps
// the ring it has, and a rebuilt port's queues have none yet.
func TestEmptySchedulerLoadZeroAlloc(t *testing.T) {
	var weights [NumClasses]float64
	for c := range weights {
		weights[c] = 1
	}
	s := NewHybrid(6000, weights)
	s.ClassQueue(ClassBestEffort).Drop = NewRED(20, 1500, 0.5, sim.NewRand(3))
	data := schedBytes(s)
	const runs = 20
	codecs := make([]*snapshot.Codec, runs+1)
	for i := range codecs {
		codecs[i] = snapshot.Loader(snapshot.NewReader(data))
	}
	n := 0
	if got := testing.AllocsPerRun(runs, func() { SchedulerState(codecs[n], s, nil); n++ }); got != 0 {
		t.Errorf("loading an idle hybrid took %v allocations, want 0", got)
	}
	for _, c := range codecs {
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
	}
}

// A hybrid's record is the WFQ it is, behind the hybrid's own kind tag:
// over a seeded stream of enqueues, dequeues, passes and mutations through
// ClassQueue, with WRED on best effort, a save loaded into a fresh hybrid
// saves to the same bytes and serves the same packets, and a scheduler of
// another kind refuses it.
func TestHybridStateRoundTrips(t *testing.T) {
	s := passRigs()["hybrid"].(*HybridScheduler)
	fresh := func() *HybridScheduler {
		h := NewHybrid(6000, s.wfq.weights)
		h.ClassQueue(ClassBestEffort).Drop = NewRED(20, 1500, 0.5, sim.NewRand(1))
		return h
	}
	alloc := func() *packet.Packet { return &packet.Packet{} }
	rng := sim.NewRand(42)
	now := sim.Time(0)
	var held uint32 // classes seen backlogged
	for i := 0; i < 20000; i++ {
		now += sim.Time(rng.Intn(150)) * sim.Microsecond
		c := Class(rng.Intn(int(NumClasses)))
		p := &packet.Packet{Payload: 60 + rng.Intn(1400), Seq: uint64(i)}
		if rng.Intn(20) == 0 {
			p.Payload = 7000 // above the byte limit
		}
		switch op := rng.Intn(10); {
		case op < 4:
			s.Enqueue(now, c, p)
		case op < 7:
			s.Dequeue(now)
		case op == 7:
			if s.Len() == 0 {
				s.Pass(now, c, p)
			}
		case op == 8:
			s.ClassQueue(c).Enqueue(now, p)
		default:
			s.ClassQueue(c).Dequeue()
		}
		held |= s.wfq.busy
		if i%97 != 0 {
			continue
		}
		data := schedBytes(s)
		if kind := snapshot.NewReader(data).I64(); kind != schedHybrid {
			t.Fatalf("op %d: the record's kind tag is %d, the hybrid's %d", i, kind, schedHybrid)
		}
		loaded := fresh()
		if err := snapshot.Load(snapshot.NewReader(data), func(cd *snapshot.Codec) { SchedulerState(cd, loaded, alloc) }); err != nil {
			t.Fatalf("op %d: load: %v", i, err)
		}
		if !bytes.Equal(schedBytes(loaded), data) {
			t.Fatalf("op %d: the record loaded and saved again differs", i)
		}
		twin := fresh()
		_ = snapshot.Load(snapshot.NewReader(data), func(cd *snapshot.Codec) { SchedulerState(cd, twin, alloc) })
		for a, b := s.Dequeue(now), twin.Dequeue(now); a != nil || b != nil; a, b = s.Dequeue(now), twin.Dequeue(now) {
			if a == nil || b == nil || a.Seq != b.Seq {
				t.Fatalf("op %d: the loaded hybrid serves %v where the saved one serves %v", i, b, a)
			}
		}
		if err := snapshot.Load(snapshot.NewReader(data), func(cd *snapshot.Codec) {
			SchedulerState(cd, NewWFQ(6000, s.wfq.weights), alloc)
		}); !errors.Is(err, snapshot.ErrMismatch) {
			t.Fatalf("op %d: a WFQ scheduler loading the hybrid's record: %v, want ErrMismatch", i, err)
		}
	}
	be := s.ClassQueue(ClassBestEffort)
	if held != 1<<NumClasses-1 || be.DroppedEarly == 0 || be.DroppedFull == 0 {
		t.Fatalf("the stream missed a case: classes held %06b, %d early and %d full drops on best effort",
			held, be.DroppedEarly, be.DroppedFull)
	}
}
