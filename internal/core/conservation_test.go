package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/netsim"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/trafgen"
)

// Property: at quiescence every injected packet was either delivered or
// dropped — the network never loses track of a packet — across random
// topologies, VPN layouts, and traffic mixes.
func TestPacketConservationProperty(t *testing.T) {
	f := func(seed uint16, sitesRaw, flowsRaw uint8, schedRaw uint8) bool {
		b := fourPEBackboneForTest(Config{
			Seed:      uint64(seed) + 1,
			Scheduler: SchedulerKind(int(schedRaw) % 5),
		})
		b.DefineVPN("v")
		nSites := 2 + int(sitesRaw%4)
		for i := 0; i < nSites; i++ {
			b.AddSite(SiteSpec{
				VPN: "v", Name: fmt.Sprintf("s%d", i),
				PE:       []string{"PE1", "PE2", "PE3", "PE4"}[i%4],
				Prefixes: []addr.Prefix{addr.NewPrefix(addr.IPv4(0x0a000000|uint32(i+1)<<16), 16)},
			})
		}
		b.ConvergeVPNs()

		// Ports buffer netsim.DefaultQueueBytes: traffic runs 200 ms per
		// 8 KB of buffer, long enough for an overloaded port to overflow.
		stop := 200 * sim.Millisecond * netsim.DefaultQueueBytes / (8 * 1024)
		rng := sim.NewRand(uint64(seed) + 99)
		nFlows := 1 + int(flowsRaw%6)
		for i := 0; i < nFlows; i++ {
			from := fmt.Sprintf("s%d", rng.Intn(nSites))
			to := fmt.Sprintf("s%d", rng.Intn(nSites))
			if from == to {
				continue
			}
			fl, err := b.FlowBetween(fmt.Sprintf("f%d", i), from, to, uint16(2000+i))
			if err != nil {
				return false
			}
			fl.DSCP = []packet.DSCP{packet.DSCPEF, packet.DSCPAF21, packet.DSCPBestEffort}[i%3]
			trafgen.CBR(b.Net, fl, 400+rng.Intn(1000), sim.Time(1+rng.Intn(5))*sim.Millisecond,
				0, stop)
		}
		b.Net.Run()
		return b.Net.Injected == b.Net.Delivered+b.Net.Dropped &&
			b.IsolationViolations == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// fourPEBackboneForTest mirrors the experiments helper without the import
// cycle: 4 PEs around 2 core routers.
func fourPEBackboneForTest(cfg Config) *Backbone {
	b := NewBackbone(cfg)
	for _, n := range []string{"PE1", "PE2", "PE3", "PE4"} {
		b.AddPE(n)
	}
	b.AddP("P1")
	b.AddP("P2")
	for _, l := range [][2]string{
		{"PE1", "P1"}, {"PE2", "P1"}, {"PE3", "P2"}, {"PE4", "P2"}, {"P1", "P2"},
	} {
		b.Link(l[0], l[1], 10e6, sim.Millisecond, 1)
	}
	b.BuildProvider()
	return b
}

// Property: determinism — the same seed and workload produce identical
// delivery/drop counts and latency percentiles run-to-run.
func TestDeterminismProperty(t *testing.T) {
	runOnce := func(seed uint64) (int, int, float64) {
		b := fourPEBackboneForTest(Config{Seed: seed, Scheduler: SchedHybrid})
		b.DefineVPN("v")
		b.AddSite(SiteSpec{VPN: "v", Name: "a", PE: "PE1",
			Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
		b.AddSite(SiteSpec{VPN: "v", Name: "z", PE: "PE4",
			Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
		b.ConvergeVPNs()
		f, _ := b.FlowBetween("f", "a", "z", 80)
		trafgen.Poisson(b.Net, f, 500, 2000, 0, 500*sim.Millisecond, b.E.Rand().Fork())
		b.Net.Run()
		return b.Net.Delivered, b.Net.Dropped, f.Stats.Latency.Percentile(99)
	}
	d1, x1, p1 := runOnce(12345)
	d2, x2, p2 := runOnce(12345)
	if d1 != d2 || x1 != x2 || p1 != p2 {
		t.Fatalf("nondeterminism: (%d,%d,%v) vs (%d,%d,%v)", d1, x1, p1, d2, x2, p2)
	}
	d3, _, _ := runOnce(54321)
	if d3 == d1 {
		// Different seeds giving identical Poisson counts would be a
		// seeding bug (same stream reused).
		t.Log("note: different seeds produced same delivery count (possible but unlikely)")
	}
}
