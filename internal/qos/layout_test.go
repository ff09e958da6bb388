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

// v5Hybrid encodes a hybrid's state by hand, in the layout of checkpoint
// format v5: the hybrid's kind (4), the EF cap's fields (written by efCap),
// then the two schedulers the hybrid nested before it held one set of
// queues — a strict-priority tier (kind 1) whose queues for control and
// voice are live, then a WFQ tier (kind 2) with six finish times, the
// virtual time and live queues for the other four. Every other queue record
// is written by phantom, given the tier's kind and the class.
func v5Hybrid(s *HybridScheduler, efCap func(w *snapshot.Writer), phantom func(w *snapshot.Writer, tier int, c Class)) []byte {
	var w snapshot.Writer
	codec := snapshot.Saver(&w)
	queue := func(q *Queue) {
		w.I64(int64(q.Enqueued))
		w.I64(int64(q.DroppedFull))
		w.I64(int64(q.DroppedEarly))
		red, _ := q.Drop.(*RED)
		w.Bool(red != nil)
		if red != nil {
			w.F64(red.avg)
			w.I64(int64(red.count))
			w.U64(red.rng.State())
		}
		w.U64(uint64(q.count))
		for i := 0; i < q.count; i++ {
			packet.State(codec, q.pkts[(q.head+i)%len(q.pkts)])
		}
	}
	w.I64(4)
	efCap(&w)
	w.I64(1)
	for c := Class(0); c < NumClasses; c++ {
		if c == ClassNetworkControl || c == ClassVoice {
			queue(s.ClassQueue(c))
		} else {
			phantom(&w, 1, c)
		}
	}
	w.I64(2)
	for _, f := range s.wfq.finish {
		w.F64(f)
	}
	w.F64(s.wfq.vtime)
	for c := Class(0); c < NumClasses; c++ {
		if c == ClassNetworkControl || c == ClassVoice {
			phantom(&w, 2, c)
		} else {
			queue(s.ClassQueue(c))
		}
	}
	return w.Data()
}

// noEFCap writes the EF cap's fields as the hybrid writes them: nothing
// policed, no token bucket.
func noEFCap(w *snapshot.Writer) {
	w.I64(0)
	w.Bool(false)
}

// pristineRecord writes what an empty queue without early drop writes: three
// zero counters, no RED, no packets.
func pristineRecord(w *snapshot.Writer, _ int, _ Class) {
	w.I64(0)
	w.I64(0)
	w.I64(0)
	w.Bool(false)
	w.U64(0)
}

// The hybrid holds one set of queues, but its checkpoint is still format
// v5's two tiers byte for byte: over a seeded stream of enqueues, dequeues,
// passes and mutations through ClassQueue, with WRED on best effort,
// SchedulerState writes exactly the hand-made v5 layout, and loading those
// bytes into a fresh hybrid gives them back.
func TestHybridWritesTheV5Layout(t *testing.T) {
	s := passRigs()["hybrid"].(*HybridScheduler)
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
		want := v5Hybrid(s, noEFCap, pristineRecord)
		if got := schedBytes(s); !bytes.Equal(got, want) {
			t.Fatalf("op %d: SchedulerState wrote\n %x\nthe v5 layout is\n %x", i, got, want)
		}
		if i%97 == 0 {
			loaded := NewHybrid(6000, s.wfq.weights)
			loaded.ClassQueue(ClassBestEffort).Drop = NewRED(20, 1500, 0.5, sim.NewRand(1))
			if err := snapshot.Load(snapshot.NewReader(want), func(cd *snapshot.Codec) {
				SchedulerState(cd, loaded, func() *packet.Packet { return &packet.Packet{} })
			}); err != nil {
				t.Fatalf("op %d: loading the v5 layout: %v", i, err)
			}
			if got := schedBytes(loaded); !bytes.Equal(got, want) {
				t.Fatalf("op %d: the v5 layout loaded and saved again differs", i)
			}
		}
	}
	be := s.ClassQueue(ClassBestEffort)
	if held != 1<<NumClasses-1 || be.DroppedEarly == 0 || be.DroppedFull == 0 {
		t.Fatalf("the stream missed a case: classes held %06b, %d early and %d full drops on best effort",
			held, be.DroppedEarly, be.DroppedFull)
	}
}

// A v5 phantom record can only be the bytes of an empty queue without early
// drop; a load that finds anything else in one — a counter, RED state, a
// packet count — refuses the checkpoint as corrupt, whichever tier and class
// it sits at.
func TestHybridRefusesAPhantomThatIsNotEmpty(t *testing.T) {
	var weights [NumClasses]float64
	for c := range weights {
		weights[c] = 1
	}
	src := NewHybrid(6000, weights)
	load := func(data []byte) error {
		return snapshot.Load(snapshot.NewReader(data), func(cd *snapshot.Codec) {
			SchedulerState(cd, NewHybrid(6000, weights), func() *packet.Packet { return &packet.Packet{} })
		})
	}
	if err := load(v5Hybrid(src, noEFCap, pristineRecord)); err != nil {
		t.Fatalf("the pristine v5 layout: %v", err)
	}
	for tier := 1; tier <= 2; tier++ {
		for c := Class(0); c < NumClasses; c++ {
			if (tier == 1) == isPriorityClass(c) {
				continue // a live record
			}
			for field := 0; field < 5; field++ {
				var rec [5]int64 // three counters, the RED flag, the packet count
				rec[field] = 1
				data := v5Hybrid(src, noEFCap, func(w *snapshot.Writer, atTier int, at Class) {
					if atTier != tier || at != c {
						pristineRecord(w, atTier, at)
						return
					}
					w.I64(rec[0])
					w.I64(rec[1])
					w.I64(rec[2])
					w.Bool(rec[3] != 0)
					w.U64(uint64(rec[4]))
				})
				if err := load(data); !errors.Is(err, snapshot.ErrCorrupt) {
					t.Errorf("tier %d, class %v, field %d set: load = %v, want ErrCorrupt", tier, c, field, err)
				}
			}
		}
	}
}

// The hybrid has no EF cap, but format v5 keeps its fields: a policed count
// and a token bucket's presence flag, written as 0 and false. A load that
// finds a cap there, or a policed count other than zero, refuses the
// checkpoint as corrupt.
func TestHybridRefusesAnEFCap(t *testing.T) {
	var weights [NumClasses]float64
	for c := range weights {
		weights[c] = 1
	}
	src := NewHybrid(6000, weights)
	load := func(data []byte) error {
		return snapshot.Load(snapshot.NewReader(data), func(cd *snapshot.Codec) {
			SchedulerState(cd, NewHybrid(6000, weights), func() *packet.Packet { return &packet.Packet{} })
		})
	}
	if err := load(v5Hybrid(src, noEFCap, pristineRecord)); err != nil {
		t.Fatalf("the v5 layout without a cap: %v", err)
	}
	for name, efCap := range map[string]func(w *snapshot.Writer){
		"policed":  func(w *snapshot.Writer) { w.I64(3); w.Bool(false) },
		"negative": func(w *snapshot.Writer) { w.I64(-1); w.Bool(false) },
		"capped":   func(w *snapshot.Writer) { w.I64(0); w.Bool(true); w.F64(1500); w.I64(0); w.Bool(true) },
		"both":     func(w *snapshot.Writer) { w.I64(7); w.Bool(true); w.F64(0); w.I64(5); w.Bool(false) },
	} {
		if err := load(v5Hybrid(src, efCap, pristineRecord)); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: load = %v, want ErrCorrupt", name, err)
		}
	}
}
