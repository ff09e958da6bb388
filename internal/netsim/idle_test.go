package netsim

import (
	"reflect"
	"strings"
	"testing"

	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
)

// An idle port rules on a packet with Scheduler.Pass and hands it straight
// to the wire; a busy one queues it and a wake-up serves it. What happens to
// the packet from the moment the port turns to it must not depend on which:
// each scenario below runs once with the port idle when the probe arrives at
// 9 ms, and once with a 29-byte filler injected one nanosecond earlier, so
// that the probe takes Enqueue, the wake-up and Dequeue instead.

// probeFate is everything observable about the probe, the filler's own
// share of the port's ledger taken out.
type probeFate struct {
	Trail     []string // port states the probe went through, in order
	Drops     []dropRec
	Delivered int

	OfferedBytes, OfferedPkts, TxBytes, TxPkts, DropBytes, DropPkts int64
	Admitted, RefusedFull                                           int
}

func TestIdlePortEqualsBusyPort(t *testing.T) {
	const T = 9 * sim.Millisecond
	for _, tc := range []struct {
		name  string
		probe int // payload bytes
		setup func(n *Network, a topo.NodeID, ab topo.LinkID)
		down  bool // the link fails at T, just before the probe is offered
		want  func(t *testing.T, a topo.NodeID, f probeFate)
	}{
		{
			// A 1000-byte packet at 0 leaves the bucket 200 tokens; by T it
			// holds 1100, and the 1200-byte probe does not conform: it is
			// held in pending and a wake-up is booked for when it will.
			name: "shaper holds a non-conforming packet", probe: 1172,
			setup: func(n *Network, a topo.NodeID, ab topo.LinkID) {
				n.SetShaper(ab, qos.NewTokenBucket(1e5, 1200))
				n.Inject(a, mkPkt(972, 0))
			},
			want: func(t *testing.T, _ topo.NodeID, f probeFate) {
				if want := []string{"held by the shaper, wake-up booked", "launched"}; !reflect.DeepEqual(f.Trail, want) || f.Delivered != 1 {
					t.Errorf("trail %q, delivered %d; want %q and 1", f.Trail, f.Delivered, want)
				}
			},
		},
		{
			name: "link down", probe: 972, down: true,
			setup: func(*Network, topo.NodeID, topo.LinkID) {},
			want: func(t *testing.T, a topo.NodeID, f probeFate) {
				if want := []dropRec{{a, packet.DropLinkDown, T}}; !reflect.DeepEqual(f.Drops, want) || f.DropBytes != 1000 || f.Admitted != 0 {
					t.Errorf("drops %+v, %d bytes charged, %d admitted; want %+v, 1000 and 0", f.Drops, f.DropBytes, f.Admitted, want)
				}
			},
		},
		{
			name: "packet larger than the queue", probe: 972,
			setup: func(n *Network, _ topo.NodeID, ab topo.LinkID) { n.SetScheduler(ab, qos.NewFIFO(500)) },
			want: func(t *testing.T, a topo.NodeID, f probeFate) {
				if want := []dropRec{{a, packet.DropQueueOverflow, T}}; !reflect.DeepEqual(f.Drops, want) || f.DropBytes != 1000 || f.DropPkts != 1 || f.RefusedFull != 1 {
					t.Errorf("drops %+v, ledger %d bytes in %d packets, %d refused full; want %+v, 1000, 1 and 1",
						f.Drops, f.DropBytes, f.DropPkts, f.RefusedFull, want)
				}
			},
		},
	} {
		run := func(busy bool) (probeFate, topo.NodeID) {
			n, a, b, ab := pair()
			tc.setup(n, a, ab)
			var f probeFate
			var x *packet.Packet
			n.OnDrop = func(at topo.NodeID, p *packet.Packet, reason packet.DropReason) {
				if p == x {
					f.Drops = append(f.Drops, dropRec{at, reason, n.E.Now()})
				}
			}
			n.OnDeliver = func(_ topo.NodeID, p *packet.Packet) {
				if p == x {
					f.Delivered++
				}
			}
			if busy {
				n.RunUntil(T - 1)
				n.Inject(a, mkPkt(1, 0))
			}
			n.RunUntil(T)
			if tc.down {
				n.G.SetLinkDown(a, b, true)
			}
			pt := n.portFor(ab)
			observe := func() {
				state := ""
				switch {
				case pt.pending == x && pt.wake:
					state = "held by the shaper, wake-up booked"
				case pt.pending == x:
					state = "held by the shaper, no wake-up"
				case n.E.Now() < pt.busyUntil && pt.fly != nil && pt.fly.p == x:
					state = "launched"
				}
				if state != "" && (len(f.Trail) == 0 || f.Trail[len(f.Trail)-1] != state) {
					f.Trail = append(f.Trail, state)
				}
				if err := n.CheckConservation(); err != nil {
					t.Fatalf("%s, busy=%v, at %v: %v", tc.name, busy, n.E.Now(), err)
				}
			}
			x = mkPkt(tc.probe, 0)
			n.Inject(a, x)
			for observe(); n.E.Step(); observe() {
			}
			q := n.PortQueue(ab, qos.ClassBestEffort)
			f.OfferedBytes, f.OfferedPkts = pt.offeredBytes, pt.offeredPkts
			f.TxBytes, f.TxPkts, f.DropBytes, f.DropPkts = pt.txBytes, pt.txPkts, pt.dropBytes, pt.dropPkts
			f.Admitted, f.RefusedFull = q.Enqueued, q.DroppedFull
			if busy {
				// The filler was offered and admitted, and then transmitted —
				// or, with the link dying under it, lost.
				f.OfferedBytes, f.OfferedPkts, f.Admitted = f.OfferedBytes-29, f.OfferedPkts-1, f.Admitted-1
				if tc.down {
					f.DropBytes, f.DropPkts = f.DropBytes-29, f.DropPkts-1
				} else {
					f.TxBytes, f.TxPkts = f.TxBytes-29, f.TxPkts-1
				}
			}
			return f, a
		}
		idle, a := run(false)
		busy, _ := run(true)
		if !reflect.DeepEqual(idle, busy) {
			t.Errorf("%s:\n idle port %+v\n busy port %+v", tc.name, idle, busy)
		}
		tc.want(t, a, idle)
	}
}

// The pass-through rests on "a packet in the scheduler or held by the shaper
// implies a wake-up is booked"; CheckConservation fails on a port where it
// does not hold, naming the port, even though the byte ledger balances.
func TestConservationChecksWakeInvariant(t *testing.T) {
	for _, held := range []bool{false, true} {
		n, a, _, ab := pair()
		n.Inject(a, mkPkt(972, 0))
		n.Inject(a, mkPkt(972, 0)) // queued behind the first, wake-up booked
		if err := n.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		pt := n.port(ab)
		if held {
			pt.pending = pt.sched.Dequeue(0)
		}
		pt.wake = false
		if err := n.CheckConservation(); err == nil || !strings.Contains(err.Error(), "A->B has no wake-up booked") {
			t.Fatalf("held=%v: CheckConservation = %v, want the A->B wake-up violation", held, err)
		}
	}
}
