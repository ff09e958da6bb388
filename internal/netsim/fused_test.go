package netsim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/device"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

// Tests for the fused hop: an idle port costs one event per hop (the far-end
// arrival, posted when serialization starts), a backlogged one two (plus the
// wake-up), and what is decided at the end of serialization (t1) — the
// tx/drop ledgers, the fate of a packet whose link dies under it — is decided
// as of t1 although no event runs there.

// chain builds N0 -> N1 -> ... -> Nk, link i at bw[i] bits/s, every link
// with the same propagation delay. Nk delivers 10.2.0.0/16. shards > 0
// partitions the nodes round-robin, so every link is a cut edge.
func chain(shards int, delay sim.Time, bw ...float64) (*Network, []topo.NodeID, []topo.LinkID) {
	e := sim.NewEngine(1)
	g := topo.New()
	nodes := []topo.NodeID{g.AddNode("N0")}
	var links []topo.LinkID
	for i, b := range bw {
		nodes = append(nodes, g.AddNode(fmt.Sprintf("N%d", i+1)))
		l, _ := g.AddDuplexLink(nodes[i], nodes[i+1], b, delay, 1)
		links = append(links, l)
	}
	n := New(e, g)
	for i, id := range nodes {
		r := device.New(id, g.Name(id), device.CE, addr.IPv4(0x0aff0000|uint32(i)))
		if i < len(links) {
			r.IPTable.Insert(addr.Prefix{}, links[i])
		} else {
			r.LocalPrefixes = addr.NewTable[bool]()
			r.LocalPrefixes.Insert(addr.MustParsePrefix("10.2.0.0/16"), true)
		}
		n.AddRouter(r)
	}
	if shards > 0 {
		e.EnableShards(shards, delay, shards)
		assign := make([]int, len(nodes))
		for i := range assign {
			assign[i] = i % shards
		}
		if err := n.SetSharding(assign); err != nil {
			panic(err)
		}
	}
	return n, nodes, links
}

// TestFusedHopEventCountZeroAlloc is the exact-count gate. N packets over a
// k-link chain whose ports are idle when each packet arrives execute exactly
// N*k events and allocate nothing; a packet that has to queue behind the
// wire costs its hop one more, the port's wake-up.
func TestFusedHopEventCountZeroAlloc(t *testing.T) {
	const k, N = 4, 32
	n, nodes, _ := chain(0, 10*sim.Microsecond, 1e9, 1e9, 1e9, 1e9)
	burst := func() {
		for i := 0; i < N; i++ {
			p := n.NewPacket(nodes[0])
			fillPkt(p, 200, 0)
			n.Inject(nodes[0], p)
			n.RunUntil(n.E.Now() + 2*sim.Microsecond) // 228 B at 1 Gb/s is 1.824 us
		}
		n.Run()
	}
	burst()
	before := n.E.Executed()
	burst()
	if got := n.E.Executed() - before; got != N*k {
		t.Fatalf("%d packets over %d idle links executed %d events, want %d", N, k, got, N*k)
	}
	if allocs := testing.AllocsPerRun(10, burst); allocs != 0 {
		t.Fatalf("fused hop allocates %v per %d-packet burst, want 0", allocs, N)
	}
	if n.Injected == 0 || n.Delivered != n.Injected {
		t.Fatalf("delivered %d of %d", n.Delivered, n.Injected)
	}

	// Each link half the speed of the one before: the second of two
	// back-to-back packets finds every port still serializing the first.
	n, nodes, _ = chain(0, 10*sim.Microsecond, 8e6, 4e6, 2e6, 1e6)
	n.Inject(nodes[0], mkPkt(972, 0))
	n.Inject(nodes[0], mkPkt(972, 0))
	n.Run()
	if got := n.E.Executed(); got != k+2*k {
		t.Fatalf("a 2-deep backlog over %d links executed %d events, want %d (one per hop for the head, two for the packet behind it)", k, got, 3*k)
	}
	if n.Delivered != 2 {
		t.Fatalf("delivered %d of 2", n.Delivered)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

type dropRec struct {
	Node   topo.NodeID
	Reason packet.DropReason
	At     sim.Time
}

// TestLinkStateAtEndOfSerialization: the link's state is sampled when the
// last bit leaves the port (t1), not when the packet starts and not when it
// arrives. One 1000-byte
// packet on a 1 Mb/s, 1 ms link serializes over [0, 8 ms] and arrives at
// 9 ms. Every case runs serial, on one shard, and on two shards with the
// link a cut edge — where the drop must be charged on the source shard and
// the arrival on the destination shard must never touch the source port.
func TestLinkStateAtEndOfSerialization(t *testing.T) {
	const ms = sim.Millisecond
	type flip struct {
		at   sim.Time
		down bool
	}
	cases := []struct {
		name      string
		pkts      int
		flips     []flip
		delivered []sim.Time
		drops     []dropRec
	}{
		{"dies mid-serialization", 1, []flip{{3 * ms, true}}, nil, []dropRec{{0, packet.DropLinkDown, 8 * ms}}},
		{"down then up before t1", 1, []flip{{3 * ms, true}, {5 * ms, false}}, []sim.Time{9 * ms}, nil},
		{"down, up, down before t1", 1, []flip{{3 * ms, true}, {5 * ms, false}, {6 * ms, true}}, nil, []dropRec{{0, packet.DropLinkDown, 8 * ms}}},
		{"dies during propagation", 1, []flip{{8*ms + 500*sim.Microsecond, true}}, []sim.Time{9 * ms}, nil},
		{"dies exactly at t1", 1, []flip{{8 * ms, true}}, []sim.Time{9 * ms}, nil},
		// The second packet is dequeued onto the dead link at 8 ms — doomed
		// from the start — and reprieved when the link returns at 10 ms.
		{"backlog starts on a dead link that returns", 2, []flip{{3 * ms, true}, {10 * ms, false}},
			[]sim.Time{17 * ms}, []dropRec{{0, packet.DropLinkDown, 8 * ms}}},
		{"backlog drains into a dead link", 3, []flip{{3 * ms, true}}, nil,
			[]dropRec{{0, packet.DropLinkDown, 8 * ms}, {0, packet.DropLinkDown, 16 * ms}, {0, packet.DropLinkDown, 24 * ms}}},
	}
	for _, tc := range cases {
		for _, shards := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				n, nodes, links := chain(shards, ms, 1e6)
				var delivered []sim.Time
				var drops []dropRec
				n.OnDeliver = func(topo.NodeID, *packet.Packet) { delivered = append(delivered, n.E.Now()) }
				n.OnDrop = func(at topo.NodeID, _ *packet.Packet, r packet.DropReason) {
					drops = append(drops, dropRec{at, r, n.E.Now()})
				}
				conserved := func(when string) {
					t.Helper()
					if err := n.CheckConservation(); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
				}
				for i := 0; i < tc.pkts; i++ {
					n.Inject(nodes[0], mkPkt(972, 0))
				}
				conserved("before")
				for _, f := range tc.flips {
					n.RunUntil(f.at)
					conserved(fmt.Sprintf("before flip at %v", f.at))
					n.G.SetLinkDown(nodes[0], nodes[1], f.down)
					conserved(fmt.Sprintf("after flip at %v", f.at))
				}
				n.Run()
				conserved("after")
				if !reflect.DeepEqual(delivered, tc.delivered) {
					t.Errorf("delivered at %v, want %v", delivered, tc.delivered)
				}
				if !reflect.DeepEqual(drops, tc.drops) {
					t.Errorf("drops %v, want %v", drops, tc.drops)
				}
				nd := int64(len(tc.drops))
				if got := n.LinkDroppedPkts(links[0]); got != nd {
					t.Errorf("port drop ledger charged %d packets, want %d", got, nd)
				}
				if got := n.LinkDroppedBytes(links[0]); got != 1000*nd {
					t.Errorf("port drop ledger charged %d bytes, want %d", got, 1000*nd)
				}
				if got, want := n.LinkTxBytes(links[0]), 1000*int64(len(tc.delivered)); got != want {
					t.Errorf("LinkTxBytes = %d, want %d", got, want)
				}
				if shards == 2 {
					if got, want := n.CrossShardHandoffs(), int64(len(tc.delivered)); got != want {
						t.Errorf("%d handoffs for %d packets that crossed", got, want)
					}
				}
			})
		}
	}
}

// A packet offered at exactly busyUntil finds the wire free: it starts at
// once, with no wake-up. One nanosecond earlier it queues, and the wake-up
// starts it at the same instant.
func TestEnqueueAtExactlyBusyUntil(t *testing.T) {
	for _, early := range []sim.Time{0, 1} {
		n, a, _, ab := pair()
		var at []sim.Time
		n.OnDeliver = func(topo.NodeID, *packet.Packet) { at = append(at, n.E.Now()) }
		n.Inject(a, mkPkt(972, 0)) // serializes over [0, 8 ms]
		n.RunUntil(8*sim.Millisecond - early)
		if got := n.LinkTxBytes(ab); (got == 1000) != (early == 0) {
			t.Fatalf("early=%d: LinkTxBytes = %d at %v", early, got, n.E.Now())
		}
		n.Inject(a, mkPkt(972, 0))
		n.Run()
		if want := []sim.Time{9 * sim.Millisecond, 17 * sim.Millisecond}; !reflect.DeepEqual(at, want) {
			t.Fatalf("early=%d: delivered at %v, want %v", early, at, want)
		}
		if got, want := n.E.Executed(), uint64(2+early); got != want {
			t.Fatalf("early=%d: %d events, want %d", early, got, want)
		}
	}
}

// TestLedgerSettlesAtEndOfSerialization: LinkTxBytes, LinkUtilization and
// CheckConservation read as if the ledger were written at t1, although no
// event runs there.
func TestLedgerSettlesAtEndOfSerialization(t *testing.T) {
	n, a, _, ab := pair()
	n.Inject(a, mkPkt(972, 0))
	for _, step := range []struct {
		at sim.Time
		tx int64
	}{{4 * sim.Millisecond, 0}, {8*sim.Millisecond - 1, 0}, {8 * sim.Millisecond, 1000}, {9 * sim.Millisecond, 1000}} {
		n.RunUntil(step.at)
		if got := n.LinkTxBytes(ab); got != step.tx {
			t.Errorf("LinkTxBytes = %d at %v, want %d", got, step.at, step.tx)
		}
		if err := n.CheckConservation(); err != nil {
			t.Errorf("at %v: %v", step.at, err)
		}
	}
	if got, want := n.LinkUtilization(ab), 8.0/9.0; got != want {
		t.Errorf("utilization = %v at 9 ms, want %v", got, want)
	}
}

// snapRun drives the checkpoint scenario: two packets on a 1 Mb/s link with
// 10 ms of propagation, so that at the 10 ms cut the first is propagating
// and the second serializing on the same port. With cut set, the state is
// saved there, loaded into a rebuilt network, and the rest of the run
// happens on that one. The link then dies at failAt (0: never) and returns
// at restoreAt (0: never).
func snapRun(t *testing.T, shards int, cut bool, failAt, restoreAt sim.Time) string {
	t.Helper()
	const ms = sim.Millisecond
	build := func() (*Network, []topo.NodeID, []topo.LinkID, *[]string) {
		n, nodes, links := chain(shards, 10*ms, 1e6)
		for i := 0; i < n.G.NumLinks(); i++ {
			n.portFor(topo.LinkID(i)) // a restore target has every port, as under core
		}
		var log []string
		n.OnDeliver = func(topo.NodeID, *packet.Packet) { log = append(log, fmt.Sprintf("deliver@%v", n.E.Now())) }
		n.OnDrop = func(at topo.NodeID, _ *packet.Packet, r packet.DropReason) {
			log = append(log, fmt.Sprintf("drop@%v at %d: %v", n.E.Now(), at, r))
		}
		return n, nodes, links, &log
	}
	n, nodes, links, log := build()
	n.Inject(nodes[0], mkPkt(972, 0))
	n.Inject(nodes[0], mkPkt(972, 0))
	steps := []struct {
		at sim.Time
		do func()
	}{
		{failAt, func() { n.G.SetLinkDown(nodes[0], nodes[1], true) }},
		{10 * ms, func() {
			if !cut {
				return
			}
			var w snapshot.Writer
			n.State(snapshot.Saver(&w))
			e := n.E
			prefix := *log
			n, nodes, links, log = build()
			*log = prefix
			for _, s := range e.Schedulers() {
				n.E.Queue(s).RestoreCounters(e.Queue(s).Counters())
			}
			// Link state loads first, as in core.Restore.
			n.G.SetLinkDown(nodes[0], nodes[1], failAt != 0 && failAt <= 10*ms)
			if err := snapshot.Load(snapshot.NewReader(w.Data()), n.State); err != nil {
				t.Fatalf("load: %v", err)
			}
			var w2 snapshot.Writer
			n.State(snapshot.Saver(&w2))
			if string(w2.Data()) != string(w.Data()) {
				t.Fatalf("save(load(s)) != s")
			}
		}},
		{restoreAt, func() { n.G.SetLinkDown(nodes[0], nodes[1], false) }},
	}
	for now := sim.Time(0); ; {
		next := sim.MaxTime
		for _, s := range steps {
			if s.at > now && s.at < next {
				next = s.at
			}
		}
		if next == sim.MaxTime {
			break
		}
		n.RunUntil(next)
		now = next
		for _, s := range steps {
			if s.at == now {
				s.do()
			}
		}
		*log = append(*log, fmt.Sprintf("tx@%v=%d", now, n.LinkTxBytes(links[0])))
	}
	n.Run()
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%v tx=%d dropped=%d injected=%d delivered=%d dropped=%d events=%d",
		*log, n.LinkTxBytes(links[0]), n.LinkDroppedPkts(links[0]), n.Injected, n.Delivered, n.Dropped, n.E.Executed())
}

// TestSnapshotMidSerializationMidPropagation: a checkpoint cut while one
// packet is serializing and another propagating on the same port restores
// to exactly the uninterrupted run — same deliveries, drops, LinkTxBytes at
// every probe, event count — including when the restored run must doom the
// packet it loaded mid-serialization, or reprieve one it loaded doomed.
func TestSnapshotMidSerializationMidPropagation(t *testing.T) {
	const ms = sim.Millisecond
	for _, tc := range []struct {
		name              string
		failAt, restoreAt sim.Time
		want              string // a fragment the scenario must produce, so the case is not vacuous
	}{
		{"undisturbed", 0, 0, "deliver@26ms"},
		{"dies after the cut", 12 * ms, 0, "drop@16ms at 0: drop: link_down"},
		{"doomed at the cut, reprieved after", 9 * ms, 13 * ms, "deliver@26ms"},
		{"doomed at the cut", 9 * ms, 0, "drop@16ms at 0: drop: link_down"},
	} {
		for _, shards := range []int{0, 2} {
			want := snapRun(t, shards, false, tc.failAt, tc.restoreAt)
			got := snapRun(t, shards, true, tc.failAt, tc.restoreAt)
			if got != want {
				t.Errorf("%s shards=%d: restored run diverged\n uninterrupted: %s\n restored:      %s", tc.name, shards, want, got)
			}
			if !strings.Contains(want, tc.want) || !strings.Contains(want, "deliver@18ms") {
				t.Errorf("%s shards=%d: scenario is vacuous: %s", tc.name, shards, want)
			}
		}
	}
}
