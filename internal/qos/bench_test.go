package qos

import (
	"fmt"
	"testing"

	"mplsvpn/internal/packet"
)

func benchScheduler(b *testing.B, s Scheduler) {
	b.Helper()
	pkts := make([]*packet.Packet, 64)
	for i := range pkts {
		pkts[i] = pkt(500, packet.DSCP(i%64))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkts[i%len(pkts)]
		c := ClassForDSCP(p.IP.DSCP)
		if s.Enqueue(0, c, p) && i%4 == 3 {
			for j := 0; j < 4; j++ {
				s.Dequeue(0)
			}
		}
	}
}

func BenchmarkSchedulerFIFO(b *testing.B)     { benchScheduler(b, NewFIFO(0)) }
func BenchmarkSchedulerPriority(b *testing.B) { benchScheduler(b, NewPriority(0)) }
func BenchmarkSchedulerWFQ(b *testing.B) {
	var w [NumClasses]float64
	for i := range w {
		w[i] = float64(i + 1)
	}
	benchScheduler(b, NewWFQ(0, w))
}
func BenchmarkSchedulerDRR(b *testing.B) {
	var q [NumClasses]int
	for i := range q {
		q[i] = 1500
	}
	benchScheduler(b, NewDRR(0, q))
}
func BenchmarkSchedulerHybrid(b *testing.B) {
	var w [NumClasses]float64
	for i := range w {
		w[i] = float64(i + 1)
	}
	benchScheduler(b, NewHybrid(0, w))
}

func BenchmarkTokenBucket(b *testing.B) {
	tb := NewTokenBucket(1e9, 1e6)
	for i := 0; i < b.N; i++ {
		tb.Conforms(0, 1000)
	}
}

func BenchmarkClassifier(b *testing.B) {
	cl := VoiceDataPolicy(5060, 1e9)
	p := pkt(200, 0)
	p.L4.DstPort = 5060
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Classify(0, p)
	}
}

// BenchmarkSchedulerIdle is what an idle port pays the scheduler per
// packet: Pass against the Enqueue+Dequeue it replaced, on the deployed
// hybrid and on a FIFO, cycling 470 schedulers (backbone200's port count)
// so each call meets a scheduler the cache has forgotten, not one hot one.
func BenchmarkSchedulerIdle(b *testing.B) {
	var weights [NumClasses]float64
	for c := range weights {
		weights[c] = 1
	}
	kinds := map[string]func() Scheduler{
		"hybrid": func() Scheduler { return NewHybrid(1<<16, weights) },
		"fifo":   func() Scheduler { return NewFIFO(1 << 16) },
	}
	for _, kind := range []string{"hybrid", "fifo"} {
		for _, ports := range []int{1, 470} {
			scheds := make([]Scheduler, ports)
			for i := range scheds {
				scheds[i] = kinds[kind]()
			}
			p := pkt(500, 0)
			c := ClassOf(p)
			b.Run(fmt.Sprintf("%s/ports%d/pass", kind, ports), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					scheds[i%ports].Pass(0, c, p)
				}
			})
			b.Run(fmt.Sprintf("%s/ports%d/enqueue+dequeue", kind, ports), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s := scheds[i%ports]
					s.Enqueue(0, c, p)
					s.Dequeue(0)
				}
			})
		}
	}
}
