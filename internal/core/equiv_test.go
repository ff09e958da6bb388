package core

import (
	"fmt"
	"strings"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
	"mplsvpn/internal/trafgen"
)

// The serial-vs-parallel equivalence harness: every scenario below runs
// once on the serial engine and once per shard count, and the complete
// observable output — StateDigest, which hashes the per-flow statistics and
// the telemetry (metrics, flow records, journal, SLA status) with the rest
// of the checkpointed state, and the network counters — must be
// byte-identical.
//
// Scenarios use open-loop sources (CBR/Poisson/OnOff) and control-plane
// actions on the global band (failures, restores, TE (re)signalling,
// telemetry export ticks); that is exactly the class of workload the
// sharded backend promises to reproduce bit-for-bit. Closed-loop feedback
// (AIMD, request/response) is exercised separately for determinism, not
// serial-equality (see TestShardedAIMDDeterministic).

// equivScenario builds a backbone, then attaches traffic after the engine
// mode is fixed (traffic sources bind to shard clocks at attach time).
type equivScenario struct {
	name    string
	dur     sim.Time
	build   func() *Backbone
	traffic func(b *Backbone)
	// check, when set, asserts scenario-specific properties of the finished
	// run, in every engine mode.
	check func(t *testing.T, b *Backbone)
}

// fingerprint renders everything observable about a finished run:
// StateDigest, which holds the flows and the telemetry, and the packet
// counters, which the net section holds and StateDigest leaves out because
// that section depends on the shard count.
func fingerprint(b *Backbone) string {
	return b.StateDigest() + fmt.Sprintf("net: injected=%d delivered=%d dropped=%d\n",
		b.Net.Injected, b.Net.Delivered, b.Net.Dropped)
}

// runEquiv executes one scenario: shards == 0 means the serial engine.
func runEquiv(t *testing.T, sc equivScenario, shards, workers int) string {
	t.Helper()
	b := sc.build()
	if shards > 0 {
		if _, err := b.EnableSharding(ShardingOptions{Shards: shards, Workers: workers}); err != nil {
			t.Fatalf("%s: EnableSharding(%d): %v", sc.name, shards, err)
		}
	}
	sc.traffic(b)
	b.Net.RunUntil(sc.dur)
	if err := b.Net.CheckConservation(); err != nil {
		t.Fatalf("%s shards=%d: %v", sc.name, shards, err)
	}
	// A clamp is an instant the serial engine would not have used.
	if n := b.E.Clamped(); n != 0 {
		t.Errorf("%s shards=%d: %d past timestamps clamped", sc.name, shards, n)
	}
	if sc.check != nil {
		sc.check(t, b)
	}
	return fingerprint(b)
}

// diffLine points at the first diverging line of two fingerprints.
func diffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  serial:   %q\n  parallel: %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length: serial %d lines, parallel %d lines", len(al), len(bl))
}

func equivScenarios() []equivScenario {
	return append(baseEquivScenarios(), linkFlapScenarios()...)
}

func baseEquivScenarios() []equivScenario {
	return []equivScenario{
		{
			// Two VPNs meshed over the 4-PE backbone with hybrid (PQ+WFQ)
			// scheduling, voice CBR and Poisson data, the SLA watcher armed,
			// and the export tick on the global band.
			name: "qos-mesh",
			dur:  400 * sim.Millisecond,
			build: func() *Backbone {
				b := fourPEBackboneForTest(Config{Seed: 11, Scheduler: SchedHybrid})
				b.DefineVPN("corp")
				b.DefineVPN("eng")
				pes := []string{"PE1", "PE2", "PE3", "PE4"}
				for i := 0; i < 4; i++ {
					b.AddSite(SiteSpec{VPN: "corp", Name: fmt.Sprintf("c%d", i), PE: pes[i],
						Prefixes: []addr.Prefix{addr.NewPrefix(addr.IPv4(0x0a010000|uint32(i)<<8), 24)}})
				}
				for i := 0; i < 2; i++ {
					b.AddSite(SiteSpec{VPN: "eng", Name: fmt.Sprintf("e%d", i), PE: pes[i*2],
						Prefixes: []addr.Prefix{addr.NewPrefix(addr.IPv4(0x0a020000|uint32(i)<<8), 24)}})
				}
				b.ConvergeVPNs()
				b.EnableTelemetry(TelemetryOptions{
					Interval: 100 * sim.Millisecond,
					Horizon:  400 * sim.Millisecond,
					SLAs: []telemetry.SLATarget{
						{VPN: "corp", MaxP99Ms: 50, MaxLoss: 0.05},
					},
				})
				return b
			},
			traffic: func(b *Backbone) {
				pairs := [][2]string{{"c0", "c2"}, {"c1", "c3"}, {"c3", "c0"}, {"e0", "e1"}}
				for i, pr := range pairs {
					f, err := b.FlowBetween(fmt.Sprintf("f%d", i), pr[0], pr[1], 5060)
					if err != nil {
						panic(err)
					}
					// Distinct phases: no two sources ever inject at the
					// same instant, so event ordering is unambiguous.
					start := sim.Time(i) * 137 * sim.Microsecond
					trafgen.CBR(b.Net, f, 160, 20*sim.Millisecond, start, 380*sim.Millisecond)
				}
				d, _ := b.FlowBetween("data", "c2", "c1", 80)
				trafgen.Poisson(b.Net, d, 700, 900, 53*sim.Microsecond, 380*sim.Millisecond, b.E.Rand().Fork())
			},
		},
		{
			// A 2 Mb/s bottleneck hammered past capacity: queue overflow
			// drops, WRED early drops, and drop-path notifications all have
			// to merge deterministically.
			name: "bottleneck-drops",
			dur:  300 * sim.Millisecond,
			build: func() *Backbone {
				b := NewBackbone(Config{Seed: 23, Scheduler: SchedWFQ, WRED: true})
				b.AddPE("PE1")
				b.AddP("P1")
				b.AddP("P2")
				b.AddPE("PE2")
				b.Link("PE1", "P1", 10e6, sim.Millisecond, 1)
				b.Link("P1", "P2", 2e6, 2*sim.Millisecond, 1) // bottleneck
				b.Link("P2", "PE2", 10e6, sim.Millisecond, 1)
				b.BuildProvider()
				b.DefineVPN("acme")
				b.AddSite(SiteSpec{VPN: "acme", Name: "hq", PE: "PE1",
					Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
				b.AddSite(SiteSpec{VPN: "acme", Name: "branch", PE: "PE2",
					Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
				b.ConvergeVPNs()
				b.EnableTelemetry(TelemetryOptions{
					Interval: 100 * sim.Millisecond,
					Horizon:  300 * sim.Millisecond,
				})
				return b
			},
			traffic: func(b *Backbone) {
				f1, _ := b.FlowBetween("bulk", "hq", "branch", 80)
				trafgen.Poisson(b.Net, f1, 1200, 400, 0, 280*sim.Millisecond, b.E.Rand().Fork())
				f2, _ := b.FlowBetween("burst", "hq", "branch", 8080)
				trafgen.OnOff(b.Net, f2, 1200, 800*sim.Microsecond, 20*sim.Millisecond,
					15*sim.Millisecond, 71*sim.Microsecond, 280*sim.Millisecond, b.E.Rand().Fork())
				f3, _ := b.FlowBetween("back", "branch", "hq", 443)
				trafgen.CBR(b.Net, f3, 400, 5*sim.Millisecond, 29*sim.Microsecond, 280*sim.Millisecond)
			},
		},
		{
			// Mid-run link failure and restore on the global band: IGP
			// reconvergence, an RSVP-TE LSP torn off its path, and the
			// resilience plane retrying — all while CBR traffic flows.
			name: "failure-reconverge",
			dur:  500 * sim.Millisecond,
			build: func() *Backbone {
				b := fourPEBackboneForTest(Config{Seed: 31, Scheduler: SchedHybrid})
				b.DefineVPN("v")
				b.AddSite(SiteSpec{VPN: "v", Name: "a", PE: "PE1",
					Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
				b.AddSite(SiteSpec{VPN: "v", Name: "z", PE: "PE4",
					Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
				b.ConvergeVPNs()
				if _, err := b.SetupTELSPForVPN("te-az", "PE1", "PE4", "v", 1e6, -1, rsvp.SetupOptions{}); err != nil {
					panic(err)
				}
				b.EnableResilience(ResilienceOptions{})
				b.EnableTelemetry(TelemetryOptions{
					Interval: 100 * sim.Millisecond,
					Horizon:  500 * sim.Millisecond,
				})
				return b
			},
			traffic: func(b *Backbone) {
				f, _ := b.FlowBetween("voice", "a", "z", 5060)
				trafgen.CBR(b.Net, f, 160, 10*sim.Millisecond, 17*sim.Microsecond, 480*sim.Millisecond)
				r, _ := b.FlowBetween("rev", "z", "a", 5062)
				trafgen.CBR(b.Net, r, 160, 10*sim.Millisecond, 5*sim.Millisecond+313*sim.Microsecond, 480*sim.Millisecond)
				b.At(150*sim.Millisecond, func() {
					if err := b.FailLink("P1", "P2", 10*sim.Millisecond); err != nil {
						panic(err)
					}
				})
				b.At(350*sim.Millisecond, func() {
					if err := b.RestoreLink("P1", "P2", 10*sim.Millisecond); err != nil {
						panic(err)
					}
				})
			},
		},
		{
			// The bottleneck link dies twice while a packet is serializing on
			// it: once for 2 ms, back up before that packet's last bit leaves
			// (it must be delivered), once for 60 ms (it must be dropped at
			// the link's near end when the last bit would have left). No
			// event runs at that instant — the port's arrival is posted when
			// serialization starts — so the coordinator has to doom and
			// reprieve the packet in flight, across a cut edge at 2 and 8
			// shards.
			name: "fault-mid-serialization",
			dur:  300 * sim.Millisecond,
			build: func() *Backbone {
				b := NewBackbone(Config{Seed: 29, Scheduler: SchedHybrid})
				b.AddPE("PE1")
				b.AddP("P1")
				b.AddP("P2")
				b.AddPE("PE2")
				b.Link("PE1", "P1", 10e6, sim.Millisecond, 1)
				b.Link("P1", "P2", 2e6, 2*sim.Millisecond, 1)
				b.Link("P2", "PE2", 10e6, sim.Millisecond, 1)
				b.BuildProvider()
				b.DefineVPN("acme")
				b.AddSite(SiteSpec{VPN: "acme", Name: "hq", PE: "PE1",
					Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
				b.AddSite(SiteSpec{VPN: "acme", Name: "branch", PE: "PE2",
					Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
				b.ConvergeVPNs()
				b.EnableTelemetry(TelemetryOptions{
					Interval: 100 * sim.Millisecond,
					Horizon:  300 * sim.Millisecond,
				})
				return b
			},
			traffic: func(b *Backbone) {
				// 1236 B on the wire every 6 ms: P1->P2 serializes each for
				// 4.944 ms, over [3.09 ms + 6k, 8.034 ms + 6k].
				f, _ := b.FlowBetween("bulk", "hq", "branch", 80)
				trafgen.CBR(b.Net, f, 1200, 6*sim.Millisecond, 0, 280*sim.Millisecond)
				r, _ := b.FlowBetween("back", "branch", "hq", 443)
				trafgen.CBR(b.Net, r, 400, 5*sim.Millisecond, 29*sim.Microsecond, 280*sim.Millisecond)
				p1, _ := b.G.NodeByName("P1")
				p2, _ := b.G.NodeByName("P2")
				l, _ := b.G.FindLink(p1, p2)
				failMidPacket := func() {
					// Nothing queues at this load, so bytes offered and neither
					// sent nor dropped are on the wire.
					if b.Net.LinkOfferedBytes(l.ID)-b.Net.LinkTxBytes(l.ID)-b.Net.LinkDroppedBytes(l.ID) != 1236 {
						panic("fault-mid-serialization: no packet is serializing on P1->P2 at the fault instant")
					}
					if err := b.FailLink("P1", "P2", 10*sim.Millisecond); err != nil {
						panic(err)
					}
				}
				restore := func() {
					if err := b.RestoreLink("P1", "P2", 10*sim.Millisecond); err != nil {
						panic(err)
					}
				}
				b.At(100*sim.Millisecond, failMidPacket) // 0.91 ms into a packet
				b.At(102*sim.Millisecond, restore)       // 2 ms before its last bit
				b.At(160*sim.Millisecond, failMidPacket)
				b.At(220*sim.Millisecond, restore)
			},
		},
		{
			// Extranet: a shared-services VPN exporting into two customer
			// VPNs, checking the isolation counter's deterministic merge.
			name: "extranet",
			dur:  250 * sim.Millisecond,
			build: func() *Backbone {
				b := fourPEBackboneForTest(Config{Seed: 47})
				hub := addr.RouteTarget{Admin: 65000, Assigned: 999}
				b.DefineVPNWithRTs("cust1", []addr.RouteTarget{{Admin: 65000, Assigned: 1}, hub}, []addr.RouteTarget{{Admin: 65000, Assigned: 1}})
				b.DefineVPNWithRTs("cust2", []addr.RouteTarget{{Admin: 65000, Assigned: 2}, hub}, []addr.RouteTarget{{Admin: 65000, Assigned: 2}})
				b.DefineVPNWithRTs("shared", []addr.RouteTarget{{Admin: 65000, Assigned: 999}}, []addr.RouteTarget{hub})
				b.AddSite(SiteSpec{VPN: "cust1", Name: "s1", PE: "PE1",
					Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
				b.AddSite(SiteSpec{VPN: "cust2", Name: "s2", PE: "PE2",
					Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
				b.AddSite(SiteSpec{VPN: "shared", Name: "svc", PE: "PE4",
					Prefixes: []addr.Prefix{addr.MustParsePrefix("10.9.0.0/16")}})
				b.ConvergeVPNs()
				return b
			},
			traffic: func(b *Backbone) {
				f1, err := b.FlowBetween("c1-svc", "s1", "svc", 443)
				if err != nil {
					panic(err)
				}
				trafgen.CBR(b.Net, f1, 300, 4*sim.Millisecond, 0, 230*sim.Millisecond)
				f2, err := b.FlowBetween("c2-svc", "s2", "svc", 443)
				if err != nil {
					panic(err)
				}
				trafgen.CBR(b.Net, f2, 300, 4*sim.Millisecond, 507*sim.Microsecond, 230*sim.Millisecond)
			},
		},
	}
}

// TestSerialParallelEquivalence is the tentpole's acceptance gate: for
// every scenario, parallel runs at 1, 2, and 8 shards must be
// byte-identical to the serial engine.
func TestSerialParallelEquivalence(t *testing.T) {
	for _, sc := range equivScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			want := runEquiv(t, sc, 0, 0)
			for _, shards := range []int{1, 2, 8} {
				got := runEquiv(t, sc, shards, 4)
				if got != want {
					t.Errorf("shards=%d diverged from serial at %s", shards, diffLine(want, got))
				}
			}
		})
	}
}

// TestParallelWorkerInvariance pins the second half of the determinism
// claim: for a fixed shard count, the worker-pool size must not change a
// single byte.
func TestParallelWorkerInvariance(t *testing.T) {
	sc := equivScenarios()[0]
	want := runEquiv(t, sc, 4, 1)
	for _, workers := range []int{2, 3, 8} {
		got := runEquiv(t, sc, 4, workers)
		if got != want {
			t.Errorf("workers=%d diverged from workers=1 at %s", workers, diffLine(want, got))
		}
	}
}

// TestShardedAIMDDeterministic: closed-loop AIMD reacts at barrier
// granularity under sharding (documented approximation), so it is not
// serial-identical — but it must still be run-to-run deterministic and
// must still make progress.
func TestShardedAIMDDeterministic(t *testing.T) {
	run := func(workers int) string {
		b := fourPEBackboneForTest(Config{Seed: 5, Scheduler: SchedHybrid})
		b.DefineVPN("v")
		b.AddSite(SiteSpec{VPN: "v", Name: "a", PE: "PE1",
			Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
		b.AddSite(SiteSpec{VPN: "v", Name: "z", PE: "PE4",
			Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
		b.ConvergeVPNs()
		if _, err := b.EnableSharding(ShardingOptions{Shards: 4, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		f, _ := b.FlowBetween("bulk", "a", "z", 80)
		a := b.AttachAIMD(f, 1200, 400*sim.Millisecond)
		a.Start(0)
		b.Net.RunUntil(500 * sim.Millisecond)
		if f.Stats.Delivered == 0 {
			t.Fatal("AIMD made no progress under sharding")
		}
		return fingerprint(b)
	}
	want := run(1)
	for _, workers := range []int{2, 4} {
		if got := run(workers); got != want {
			t.Errorf("AIMD workers=%d diverged at %s", workers, diffLine(want, got))
		}
	}
}

// TestEquivalenceIsNotVacuous: the harness only proves something if the
// partition really splits the topology and packets really cross shards.
func TestEquivalenceIsNotVacuous(t *testing.T) {
	sc := equivScenarios()[0]
	b := sc.build()
	pr, err := b.EnableSharding(ShardingOptions{Shards: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pr.NumShards < 2 {
		t.Fatalf("partition collapsed to %d shard(s)", pr.NumShards)
	}
	if pr.CutLinks == 0 {
		t.Fatal("partition cut no links")
	}
	sc.traffic(b)
	b.Net.RunUntil(sc.dur)
	if b.Net.CrossShardHandoffs() == 0 {
		t.Fatal("no packet ever crossed a shard boundary")
	}
	if b.Net.Delivered == 0 {
		t.Fatal("no deliveries")
	}
	t.Logf("shards=%d cutLinks=%d quantum=%v handoffs=%d delivered=%d",
		pr.NumShards, pr.CutLinks, pr.MinCutDelay, b.Net.CrossShardHandoffs(), b.Net.Delivered)
}

// TestEnableShardingValidation: misuse surfaces as errors, not corruption.
func TestEnableShardingValidation(t *testing.T) {
	b := buildSmall(Config{Seed: 1})
	twoSites(b)
	if _, err := b.EnableSharding(ShardingOptions{Shards: 0}); err == nil {
		t.Error("Shards=0 accepted")
	}
	if _, err := b.EnableSharding(ShardingOptions{Shards: 2, Quantum: sim.Second}); err == nil {
		t.Error("oversized quantum accepted")
	}
	if _, err := b.EnableSharding(ShardingOptions{Shards: 2}); err != nil {
		t.Fatalf("valid sharding rejected: %v", err)
	}
	// Digest must not change because of the partition.
	if got, want := b.StateDigest(), func() string {
		b2 := buildSmall(Config{Seed: 1})
		twoSites(b2)
		return b2.StateDigest()
	}(); got != want {
		t.Error("EnableSharding changed StateDigest")
	}
}
