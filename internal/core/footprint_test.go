package core

import (
	"fmt"
	"runtime"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/sim"
)

// ring200Backbone builds the provider shape of the repository benchmark's
// backbone200 workloads without their traffic: an 8-router P ring with four
// chords on 10 Gb/s links, two PEs per P, and 200 sites in 20 VPNs spread
// over the PEs, converged under the hybrid scheduler.
func ring200Backbone() *Backbone {
	const ps, pes, sites, vpns = 8, 16, 200, 20
	b := NewBackbone(Config{Seed: 77, Scheduler: SchedHybrid})
	for i := 0; i < ps; i++ {
		b.AddP(fmt.Sprintf("P%d", i))
	}
	for i := 0; i < ps; i++ {
		b.Link(fmt.Sprintf("P%d", i), fmt.Sprintf("P%d", (i+1)%ps), 10e9, 2*sim.Millisecond, 1)
	}
	for i := 0; i < ps/2; i++ {
		b.Link(fmt.Sprintf("P%d", i), fmt.Sprintf("P%d", i+ps/2), 10e9, 3*sim.Millisecond, 2)
	}
	for i := 0; i < pes; i++ {
		b.AddPE(fmt.Sprintf("PE%d", i))
		b.Link(fmt.Sprintf("PE%d", i), fmt.Sprintf("P%d", i%ps), 10e9, sim.Millisecond, 1)
	}
	b.BuildProvider()
	for v := 0; v < vpns; v++ {
		b.DefineVPN(fmt.Sprintf("vpn%d", v))
	}
	for i := 0; i < sites; i++ {
		b.AddSite(SiteSpec{VPN: fmt.Sprintf("vpn%d", i%vpns), Name: fmt.Sprintf("s%d", i), PE: fmt.Sprintf("PE%d", i*7%pes),
			Prefixes: []addr.Prefix{addr.NewPrefix(addr.IPv4(0x0a000000|uint32(i+1)<<8), 24)}})
	}
	b.ConvergeVPNs()
	return b
}

// TestBuildFootprint pins what a provider build allocates, bytes and
// objects, from nothing to converged, and what it holds after a collection:
// the pop147_churn shape, and the ring the traffic workloads rebuild.
// Garbage a build leaves is collector work in the build, and a ring rebuild
// ends close to the collector's trigger (DESIGN.md §15.7): neither may
// allocate or hold more than recorded here. The budgets sit 1 % above what
// the builds allocated and held once a port's class queues came with its
// first packet and a trie kept values for its set prefixes alone (pop147
// 27.35 MB in 83.14k objects holding 21.01 MB, ring200 1.210 MB in 8.01k
// holding 0.934 MB). They read 32.45 MB in 83.44k (24.85 MB held) and
// 1.634 MB in 8.10k before that, and 32.67 MB in 83.55k and 1.685 MB in
// 8.13k once the ILM and FTN sets became spans in an NHLFE arena per table,
// a VRF route a 24-byte value, a CE stopped making the PE-only maps and its
// FEC trie, and a VRF its site map. Before that a BGP route became an
// entry under a shared attribute set (38.29 MB in 116.1k, 1.928 MB in
// 10.6k), and the hybrid lost its EF cap and RSVP stopped formatting event
// details nobody reads (38.21 MB in 118.3k, 1.915 MB in 10.8k); 38.97 MB in 121.3k and
// 1.973 MB when a port's hybrid scheduler came to hold one set of class
// queues and flooding to queue origin ranks; before that they read 44.41 MB and 2.414 MB, and
// before the route-target index, the one-walk FTN fill and the ledger drain
// 51.43 MB in 188.5k and 2.461 MB in 12.6k. Lower them when a change makes a
// build cheaper. The race detector allocates more, so a -race build skips
// the test.
func TestBuildFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	for _, c := range []struct {
		name              string
		build             func() *Backbone
		bytes, objs, held uint64
	}{
		{"pop147", func() *Backbone { return pop147Backbone(t) }, 27_630_000, 83_980, 21_220_000},
		{"ring200", ring200Backbone, 1_222_000, 8_090, 944_000},
	} {
		c.build() // warm every lazily built table of the runtime
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b := c.build()
		runtime.ReadMemStats(&after)
		bytes, objs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		held := heapAfterGC() - before.HeapAlloc
		runtime.KeepAlive(b)
		t.Logf("%s build: %d bytes in %d objects, %d held", c.name, bytes, objs, held)
		if bytes > c.bytes || objs > c.objs {
			t.Errorf("%s build allocated %d bytes in %d objects; budget %d bytes, %d objects", c.name, bytes, objs, c.bytes, c.objs)
		}
		if held > c.held {
			t.Errorf("%s build holds %d bytes after a collection; budget %d", c.name, held, c.held)
		}
	}
}

// TestLinkFlapFootprint pins what a link flap allocates on the pop147_churn
// shape: one grid link failed and restored, each detected at once, through
// the incremental branch (ISPF, the LDP delta, the TE re-signal). The first
// flap sizes the reconvergence's scratch and is not counted; the budget is
// the mean of the next four, 1 % above the 3,768 bytes in 106 objects it
// measured in every run once LDP's re-derived sets grew into an arena per
// table instead of a new slice each. It read 8,344 bytes in 117 objects
// before that, and once RSVP built an event's detail text only for an
// OnEvent subscriber; 9,240 bytes in 149 objects before that, when
// Setup grew a "path ..." detail hop by hop for nobody, and once a fault
// formatted its journal text only with the journal on; before that a
// formatted detail came from fmt's printer pool and read 9,370 to 9,482
// bytes in 153 to 155 objects, varying with whether a collection had
// emptied the pool; up to 17,066 bytes in 175 objects before RSVP searched
// every path in one scratch the protocol keeps; 31,082 bytes in 643 objects
// before the TE target paths were written into the scratch's own arrays;
// 250,354 bytes in 3,747 objects before LDP rewrote a re-derived ILM and
// FTN set in place and flooding queued origin ranks. The flaps run on one P: the tiny allocator packs small pointer-free
// objects into a block per P, and a goroutine that moves to another P opens
// a fresh block, 16 bytes more. The race detector allocates more, so a -race
// build skips the test.
func TestLinkFlapFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	const flaps, bytes, objs = 4, 3_810, 107
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b := pop147Backbone(t)
	a, z := gridP(3, 3), gridP(3, 4)
	flap := func() {
		flapStep{a: a, z: z}.apply(b, 0, false)
		flapStep{a: a, z: z, restore: true}.apply(b, 0, false)
	}
	flap()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < flaps; i++ {
		flap()
	}
	runtime.ReadMemStats(&after)
	gotBytes, gotObjs := (after.TotalAlloc-before.TotalAlloc)/flaps, (after.Mallocs-before.Mallocs)/flaps
	t.Logf("a link flap: %d bytes in %d objects", gotBytes, gotObjs)
	if gotBytes > bytes || gotObjs > objs {
		t.Errorf("a link flap allocated %d bytes in %d objects; budget %d bytes, %d objects", gotBytes, gotObjs, bytes, objs)
	}
}
