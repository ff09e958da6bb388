package qos

import (
	"testing"
	"testing/quick"

	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
)

// Property: srTCM never marks more green bytes than CIR*t + CBS over any
// arrival pattern (the committed-rate contract), and green+yellow never
// exceeds CIR*t + CBS + EBS.
func TestSrTCMContractProperty(t *testing.T) {
	f := func(sizes []uint16, gapsMs []uint8) bool {
		const cir, cbs, ebs = 10000.0, 3000.0, 2000.0
		m := NewSrTCM(cir, cbs, ebs)
		var now sim.Time
		var green, yellow float64
		for i, sz := range sizes {
			if i < len(gapsMs) {
				now += sim.Time(gapsMs[i]) * sim.Millisecond
			}
			n := int(sz%2000) + 1
			switch m.Mark(now, n) {
			case Green:
				green += float64(n)
			case Yellow:
				yellow += float64(n)
			}
		}
		t := now.Seconds()
		if green > cir*t+cbs+1e-6 {
			return false
		}
		// The excess bucket also fills at CIR, so the combined bound is
		// 2*CIR*t + CBS + EBS.
		return green+yellow <= 2*cir*t+cbs+ebs+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a queue's byte counter always equals the sum of its queued
// packets' serialized lengths, across any enqueue/dequeue interleaving.
func TestQueueAccountingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		q := NewQueue(50000)
		var model []int // serialized lengths in order
		for _, op := range ops {
			if op%3 == 0 && len(model) > 0 {
				p := q.Dequeue()
				if p == nil || p.SerializedLen() != model[0] {
					return false
				}
				model = model[1:]
			} else {
				size := int(op)*7 + 100
				p := &packet.Packet{Payload: size}
				if q.Enqueue(0, p) {
					model = append(model, p.SerializedLen())
				}
			}
			sum := 0
			for _, n := range model {
				sum += n
			}
			if q.Bytes() != sum || q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every scheduler is work-conserving and lossless within limits —
// what goes in comes out, exactly once, for any class mix.
func TestSchedulerConservationProperty(t *testing.T) {
	build := func(kind uint8) Scheduler {
		switch kind % 4 {
		case 0:
			return NewFIFO(0)
		case 1:
			return NewPriority(0)
		case 2:
			var w [NumClasses]float64
			for i := range w {
				w[i] = float64(i + 1)
			}
			return NewWFQ(0, w)
		default:
			var q [NumClasses]int
			for i := range q {
				q[i] = 1500
			}
			return NewDRR(0, q)
		}
	}
	f := func(kind uint8, classes []uint8) bool {
		s := build(kind)
		seen := map[uint64]bool{}
		for i, c := range classes {
			p := &packet.Packet{Payload: 100, Seq: uint64(i + 1)}
			if !s.Enqueue(0, Class(int(c)%int(NumClasses)), p) {
				return false
			}
		}
		for {
			p := s.Dequeue(0)
			if p == nil {
				break
			}
			if seen[p.Seq] {
				return false // duplicate
			}
			seen[p.Seq] = true
		}
		return len(seen) == len(classes) && s.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ClassOf is total and stable — every DSCP maps to a class whose
// EXP maps back to the same class.
func TestClassMappingTotalProperty(t *testing.T) {
	f := func(d uint8) bool {
		c := ClassForDSCP(packet.DSCP(d & 0x3f))
		if c < 0 || c >= NumClasses {
			return false
		}
		return ClassForEXP(EXPForClass(c)) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
