package core

import (
	"fmt"
	"runtime"
	"testing"

	"mplsvpn/internal/addr"

	"mplsvpn/internal/snapshot"
)

// TestSnapshotAllocationBudget pins what writing a checkpoint allocates once
// the backbone has written one before: the container's buffer and its
// Framer, whatever the number of sections, and then only what the walks
// themselves take (the section table's closures, a sorted key list per map).
// The first figure is the contract — no Writer per section, no regrowth from
// nothing, no second copy — and the second is recorded so that a walk which
// starts allocating per element shows up here and not in a profile.
func TestSnapshotAllocationBudget(t *testing.T) {
	walk := func(c *snapshot.Codec) { c.U64(1 << 20) }
	for _, n := range []int{1, 14, 200} {
		secs := make([]section, n)
		for i := range secs {
			secs[i] = section{name: fmt.Sprintf("section-%d", i), walk: walk}
		}
		size := len(encodeSections(secs, 0))
		if got := testing.AllocsPerRun(10, func() { encodeSections(secs, size) }); got != 2 {
			t.Errorf("%d sections: writing the container took %.0f allocations, want 2 (the Framer, the buffer)", n, got)
		}
	}

	b := reflectedBackbone()
	first, err := b.Snapshot("budget")
	if err != nil {
		t.Fatal(err)
	}
	var second []byte
	got := testing.AllocsPerRun(10, func() { second, _ = b.Snapshot("budget") })
	if string(second) != string(first) {
		t.Fatal("the second snapshot of an idle backbone differs from the first")
	}
	// Recorded at format v6, when a VRF's site list became one walk of its
	// slots and the "bgp" section stopped numbering routes through a sorted
	// list of speakers (25 fewer). It read 239 when the site-access bindings
	// and the attached sites moved into each VRF's site list, and 291 from
	// when the container moved to one buffer framed in place.
	const want = 214
	if got != want {
		t.Errorf("the second Snapshot took %.0f allocations, recorded %d: a walk allocates differently (re-record if meant)", got, want)
	}
}

// TestRestoreAllocationBudget pins what a restore allocates onto a rebuilt
// backbone for its ports: the "net" section, every port's scheduler and
// class queues, loaded alone. A queue loaded empty keeps the ring it has —
// none, on a rebuild that has run nothing — and grows one on its first
// Enqueue; here that is 26 hybrid ports of 12 queues, 312 rings a restore
// used to make and no longer does. The whole Restore is recorded beside it
// (the race detector's build allocates differently, so it is logged, not
// pinned).
func TestRestoreAllocationBudget(t *testing.T) {
	build := func() *Backbone {
		b := fourPEBackboneForTest(Config{Seed: 7, Scheduler: SchedHybrid})
		b.DefineVPN("v")
		for i := 0; i < 8; i++ {
			b.AddSite(SiteSpec{VPN: "v", Name: fmt.Sprintf("s%d", i), PE: fmt.Sprintf("PE%d", 1+i%4),
				Prefixes: []addr.Prefix{addr.NewPrefix(addr.IPv4(0x0a000000|uint32(i+1)<<16), 16)}})
		}
		b.ConvergeVPNs()
		return b
	}
	data, err := build().Snapshot("budget")
	if err != nil {
		t.Fatal(err)
	}
	file, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	net, _ := file.Section(secNet)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	measure := func(restore func(b *Backbone) error) uint64 {
		b := build()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := restore(b); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	loadNet := func(b *Backbone) error { return snapshot.Load(snapshot.NewReader(net), b.Net.State) }
	measure(loadNet) // first-use allocations outside the walk
	// The Reader and its Codec; it was 314 while every queue made a ring.
	if got := measure(loadNet); got != 2 {
		t.Errorf("loading the ports took %d allocations, want 2 (the reader and its codec)", got)
	}
	t.Logf("the whole Restore took %d allocations", measure(func(b *Backbone) error { return b.Restore(data, "budget") }))
}
