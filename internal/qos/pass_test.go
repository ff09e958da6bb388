package qos

import (
	"bytes"
	"testing"

	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
)

// passRigs builds every scheduler with the features whose state Pass must
// move exactly as the pair does: RED on best effort, a byte limit a large
// packet overruns, a DRR quantum smaller than most packets. Each call returns fresh schedulers with fresh RED streams.
func passRigs() map[string]Scheduler {
	const limit = 6000
	var weights [NumClasses]float64
	var quanta [NumClasses]int
	for c := range weights {
		weights[c] = float64(1 + c)
		quanta[c] = 300
	}
	rigs := map[string]Scheduler{
		"fifo":     NewFIFO(limit),
		"priority": NewPriority(limit),
		"wfq":      NewWFQ(limit, weights),
		"drr":      NewDRR(limit, quanta),
		"hybrid":   NewHybrid(limit, weights),
	}
	for _, s := range rigs {
		s.ClassQueue(ClassBestEffort).Drop = NewRED(20, 1500, 0.5, sim.NewRand(99))
	}
	return rigs
}

func schedBytes(s Scheduler) []byte {
	var w snapshot.Writer
	SchedulerState(snapshot.Saver(&w), s, nil)
	return w.Data()
}

// TestPassEqualsEnqueueDequeue is Pass's definition as a test: twin
// schedulers take one random stream of enqueues, dequeues and hops (a packet
// offered and the next one served at once); on a hop one twin calls Pass
// whenever it holds nothing, the other always Enqueue then Dequeue. After
// every operation the verdict, the arrival stamp and every byte of scheduler
// state — counters, RED's average, count and stream, WFQ's finish and virtual
// times, DRR's cursor and deficits — are equal.
func TestPassEqualsEnqueueDequeue(t *testing.T) {
	plain := passRigs()
	for name, passing := range passRigs() {
		plain := plain[name]
		rng := sim.NewRand(7)
		now := sim.Time(0)
		passes, queued := 0, 0 // hops that met an empty scheduler, and a backlog
		// offer builds one packet per twin: the stamp is compared too.
		offer := func() (Class, [2]*packet.Packet) {
			c := Class(rng.Intn(int(NumClasses)))
			size := 60 + rng.Intn(1400)
			if rng.Intn(20) == 0 {
				size = 7000 // above every queue's byte limit
			}
			return c, [2]*packet.Packet{{Payload: size}, {Payload: size}}
		}
		for i := 0; i < 20000; i++ {
			now += sim.Time(rng.Intn(200)) * sim.Microsecond
			what := "dequeue"
			switch rng.Intn(6) {
			case 0, 1:
				what = "enqueue"
				c, p := offer()
				if a, b := passing.Enqueue(now, c, p[0]), plain.Enqueue(now, c, p[1]); a != b {
					t.Fatalf("%s op %d: Enqueue = %v and %v", name, i, a, b)
				}
			case 2, 3, 4:
				a, b := passing.Dequeue(now), plain.Dequeue(now)
				if (a == nil) != (b == nil) || (a != nil && *a != *b) {
					t.Fatalf("%s op %d: Dequeue = %+v and %+v", name, i, a, b)
				}
			default:
				what = "hop"
				c, p := offer()
				var ok bool
				if passing.Len() == 0 {
					what = "hop by Pass"
					passes++
					ok = passing.Pass(now, c, p[0])
				} else if queued++; passing.Enqueue(now, c, p[0]) {
					ok = true
					passing.Dequeue(now)
				}
				want := plain.Enqueue(now, c, p[1])
				if want {
					if served := plain.Dequeue(now); what == "hop by Pass" && served != p[1] {
						t.Fatalf("%s op %d: an empty scheduler served %+v, not the packet just offered", name, i, served)
					}
				}
				if ok != want || p[0].EnqueuedAt != p[1].EnqueuedAt {
					t.Fatalf("%s op %d, %s: verdict %v stamp %v, the pair's %v and %v", name, i, what, ok, p[0].EnqueuedAt, want, p[1].EnqueuedAt)
				}
			}
			if a, b := schedBytes(passing), schedBytes(plain); !bytes.Equal(a, b) {
				t.Fatalf("%s op %d, %s: scheduler state differs\n pass %x\n pair %x", name, i, what, a, b)
			}
		}
		if q := passing.ClassQueue(ClassBestEffort); passes < 1000 || queued < 1000 || q.DroppedFull == 0 || q.DroppedEarly == 0 {
			t.Fatalf("%s: %d hops by Pass, %d behind a backlog, %d full and %d early drops on best effort: the stream missed a case",
				name, passes, queued, q.DroppedFull, q.DroppedEarly)
		}
	}
}

// Pass allocates nothing, on any scheduler, from the first call: there is
// no ring to warm.
func TestPassZeroAlloc(t *testing.T) {
	for name, s := range passRigs() {
		p := &packet.Packet{Payload: 400}
		now := sim.Time(0)
		allocs := testing.AllocsPerRun(100, func() {
			for c := Class(0); c < NumClasses; c++ {
				now += sim.Millisecond
				s.Pass(now, c, p)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Pass allocates %v per round of classes, want 0", name, allocs)
		}
	}
}
