package core

import (
	"fmt"
	"strings"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

// TestAIMDAdaptsToBottleneck drives a greedy AIMD bulk source across the
// small backbone's 10 Mb/s links and checks it converges to roughly link
// rate without catastrophic loss — congestion control probing, backing
// off on queue drops, and stabilizing.
func TestAIMDAdaptsToBottleneck(t *testing.T) {
	b := buildSmall(Config{Seed: 90, Scheduler: SchedHybrid})
	twoSites(b)
	f, _ := b.FlowBetween("bulk", "hq", "branch", 80)
	src := b.AttachAIMD(f, 1400, 10*sim.Second)
	src.Start(0)
	b.Net.RunUntil(11 * sim.Second)

	if f.Stats.Sent < 100 {
		t.Fatalf("AIMD barely transmitted: %d packets", f.Stats.Sent)
	}
	thr := f.Stats.ThroughputBps()
	// Goodput should reach a meaningful fraction of the 10 Mb/s path but
	// cannot exceed it.
	if thr < 2e6 {
		t.Fatalf("AIMD goodput = %.0f b/s, want > 2 Mb/s", thr)
	}
	if thr > 10.5e6 {
		t.Fatalf("AIMD goodput = %.0f b/s exceeds link rate", thr)
	}
	// Loss stays moderate: AIMD backs off instead of blasting.
	if f.Stats.LossRate() > 0.15 {
		t.Fatalf("AIMD loss = %v", f.Stats.LossRate())
	}
	if src.Window() < 1 {
		t.Fatalf("window collapsed: %v", src.Window())
	}
}

// TestAIMDSharesWithVoice runs the greedy source against protected voice:
// the adaptive bulk fills leftover capacity while voice keeps its SLA.
func TestAIMDSharesWithVoice(t *testing.T) {
	b := buildSmall(Config{Seed: 91, Scheduler: SchedHybrid})
	twoSites(b)
	voice, _ := b.FlowBetween("voice", "hq", "branch", 5060)
	voice.DSCP = packet.DSCPEF
	trafgen.CBR(b.Net, voice, 160, 20*sim.Millisecond, 0, 5*sim.Second)

	bulk, _ := b.FlowBetween("bulk", "hq", "branch", 80)
	bulk.DSCP = packet.DSCPBestEffort
	src := b.AttachAIMD(bulk, 1400, 5*sim.Second)
	src.Start(0)
	b.Net.RunUntil(6 * sim.Second)

	if voice.Stats.LossRate() > 0.001 {
		t.Fatalf("voice loss with AIMD competitor = %v", voice.Stats.LossRate())
	}
	if voice.Stats.Latency.Percentile(99) > 15 {
		t.Fatalf("voice p99 = %v ms", voice.Stats.Latency.Percentile(99))
	}
	if bulk.Stats.ThroughputBps() < 1e6 {
		t.Fatalf("bulk starved: %.0f b/s", bulk.Stats.ThroughputBps())
	}
}

// TestAIMDSnapshotResume: a checkpoint taken mid-transfer must restore to
// a byte-identical continuation — the congestion state (cwnd, ssthresh,
// ack ledger) serializes and the pending RTO probe re-arms with its
// original event identity.
func TestAIMDSnapshotResume(t *testing.T) {
	build := func() (*Backbone, *trafgen.Flow, *trafgen.AIMD) {
		b := buildSmall(Config{Seed: 92, Scheduler: SchedHybrid})
		twoSites(b)
		f, _ := b.FlowBetween("bulk", "hq", "branch", 80)
		a := b.AttachAIMD(f, 1400, 2*sim.Second)
		a.Start(0)
		b.E.MarkSetup()
		return b, f, a
	}
	const fp = "aimd-resume"
	b1, f1, _ := build()
	b1.Net.RunUntil(700 * sim.Millisecond)
	data, err := b1.Snapshot(fp)
	if err != nil {
		t.Fatal(err)
	}
	b1.Net.RunUntil(2500 * sim.Millisecond)
	want := fingerprint(b1, []*trafgen.Flow{f1})

	b2, f2, a2 := build()
	if err := b2.Restore(data, fp); err != nil {
		t.Fatal(err)
	}
	b2.Net.RunUntil(2500 * sim.Millisecond)
	if got := fingerprint(b2, []*trafgen.Flow{f2}); got != want {
		t.Fatalf("AIMD resume diverged at %s", diffLine(want, got))
	}
	if a2.Window() < 1 || a2.Ssthresh() <= 0 {
		t.Fatalf("bad restored congestion state: cwnd=%v ssthresh=%v", a2.Window(), a2.Ssthresh())
	}
}

func TestRequestResponseRTT(t *testing.T) {
	b := buildSmall(Config{Seed: 95, Scheduler: SchedHybrid})
	twoSites(b)
	rr, err := b.RequestResponse("rpc", "hq", "branch", 9000, 400)
	if err != nil {
		t.Fatal(err)
	}
	rr.SendRequests(100, 20*sim.Millisecond, 0, sim.Second)
	b.Net.Run()

	if rr.Completed == 0 {
		t.Fatal("no transactions completed")
	}
	if rr.Outstanding() != 0 {
		t.Fatalf("%d transactions never answered", rr.Outstanding())
	}
	// RTT = forward (~6ms) + reverse (~6ms) propagation plus serialization.
	if p50 := rr.RTT.Percentile(50); p50 < 10 || p50 > 20 {
		t.Fatalf("rpc p50 RTT = %v ms", p50)
	}
}

func TestRequestResponseUnderCongestion(t *testing.T) {
	// Transactions marked business-class keep bounded RTT while bulk
	// floods the path.
	b := buildSmall(Config{Seed: 96, Scheduler: SchedHybrid})
	twoSites(b)
	rr, _ := b.RequestResponse("rpc", "hq", "branch", 9000, 400)
	rr.Req.DSCP = packet.DSCPAF41
	rr.Resp.Flow.DSCP = packet.DSCPAF41
	rr.SendRequests(100, 20*sim.Millisecond, 0, 2*sim.Second)
	bulk, _ := b.FlowBetween("bulk", "hq", "branch", 80)
	trafgen.CBR(b.Net, bulk, 1400, 800*sim.Microsecond, 0, 2*sim.Second)
	b.Net.RunUntil(3 * sim.Second)

	if rr.Completed == 0 {
		t.Fatal("no transactions under congestion")
	}
	if p99 := rr.RTT.Percentile(99); p99 > 30 {
		t.Fatalf("business rpc p99 RTT = %v ms under congestion", p99)
	}
}

// TestRequestResponseSurvivesCheckpoint cuts a transactional exchange in
// mid-flight — requests on the wire, their send times in the pending map,
// the pacer's next request booked on the engine — and resumes it on a
// rebuild: completions, outstanding transactions and every RTT sample must
// match the uninterrupted run, serial and sharded.
func TestRequestResponseSurvivesCheckpoint(t *testing.T) {
	for _, shards := range []int{0, 8} {
		build := func() (*Backbone, *trafgen.ReqResp) {
			b := buildSmall(Config{Seed: 98, Scheduler: SchedHybrid})
			twoSites(b)
			if shards > 0 {
				if _, err := b.EnableSharding(ShardingOptions{Shards: shards, Workers: 2}); err != nil {
					t.Fatal(err)
				}
			}
			rr, err := b.RequestResponse("rpc", "hq", "branch", 9000, 400)
			if err != nil {
				t.Fatal(err)
			}
			b.RegisterSource(rr)
			rr.SendRequests(100, 5*sim.Millisecond, 0, sim.Second)
			b.E.MarkSetup()
			return b, rr
		}
		render := func(rr *trafgen.ReqResp) string {
			return fmt.Sprintf("completed=%d outstanding=%d rtt n=%d mean=%v p50=%v p99=%v max=%v",
				rr.Completed, rr.Outstanding(), rr.RTT.Count(), rr.RTT.Mean(),
				rr.RTT.Percentile(50), rr.RTT.Percentile(99), rr.RTT.Max())
		}
		const fp = "reqresp-resume"
		b1, rr1 := build()
		b1.Net.RunUntil(503 * sim.Millisecond)
		if rr1.Outstanding() < 2 || rr1.Completed == 0 {
			t.Fatalf("shards=%d: cut is not mid-exchange: %s", shards, render(rr1))
		}
		data, err := b1.Snapshot(fp)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		b1.Net.RunUntil(1500 * sim.Millisecond)

		b2, rr2 := build()
		if err := b2.Restore(data, fp); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		b2.Net.RunUntil(1500 * sim.Millisecond)
		if got, want := render(rr2), render(rr1); got != want || rr2.Outstanding() != 0 {
			t.Errorf("shards=%d: resumed exchange diverged:\n got %s\nwant %s", shards, got, want)
		}
		if got, want := fingerprint(b2, []*trafgen.Flow{rr2.Req, rr2.Resp.Flow}), fingerprint(b1, []*trafgen.Flow{rr1.Req, rr1.Resp.Flow}); got != want {
			t.Errorf("shards=%d: resumed run diverged at %s", shards, diffLine(want, got))
		}
	}
}

func TestTraceRoute(t *testing.T) {
	b := buildSmall(Config{Seed: 97})
	twoSites(b)
	tr := b.TraceRoute("hq", addr.MustParseIPv4("10.2.0.1"), packet.DSCPEF)
	if !tr.Delivered {
		t.Fatalf("trace failed: %s", tr.Reason)
	}
	// ce-hq, PE1, P1, P2, PE2, ce-branch = 6 hops.
	if len(tr.Hops) != 6 {
		t.Fatalf("hops = %d:\n%s", len(tr.Hops), tr.String())
	}
	out := tr.String()
	for _, want := range []string{"push 2 label(s)", "swap", "pop", "deliver", "PE1", "ce-branch"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestTraceRouteUnreachable(t *testing.T) {
	b := buildSmall(Config{Seed: 98})
	twoSites(b)
	tr := b.TraceRoute("hq", addr.MustParseIPv4("99.0.0.1"), 0)
	if tr.Delivered {
		t.Fatal("unreachable destination delivered")
	}
	if !strings.Contains(tr.Reason, "no_route") {
		t.Fatalf("reason = %q", tr.Reason)
	}
	if tr2 := b.TraceRoute("ghost", addr.MustParseIPv4("10.2.0.1"), 0); tr2.Delivered {
		t.Fatal("unknown site traced")
	}
}

func TestTraceRouteShowsTEPath(t *testing.T) {
	// On the fish, a pinned TE LSP must appear in the trace.
	b := NewBackbone(Config{Seed: 99})
	b.AddPE("PE1")
	b.AddP("M")
	b.AddP("X")
	b.AddP("Y")
	b.AddPE("PE2")
	b.Link("PE1", "M", 10e6, sim.Millisecond, 1)
	b.Link("M", "PE2", 10e6, sim.Millisecond, 1)
	b.Link("PE1", "X", 10e6, sim.Millisecond, 2)
	b.Link("X", "Y", 10e6, sim.Millisecond, 2)
	b.Link("Y", "PE2", 10e6, sim.Millisecond, 2)
	b.BuildProvider()
	twoSites(b)
	long := b.G.KShortestPaths(b.mustNode("PE1"), b.mustNode("PE2"), 2, topo.Constraints{})[1]
	if _, err := b.SetupTELSP("pin", "PE1", "PE2", 1e6, -1, rsvp.SetupOptions{Explicit: &long}); err != nil {
		t.Fatal(err)
	}
	tr := b.TraceRoute("hq", addr.MustParseIPv4("10.2.0.1"), 0)
	if !tr.Delivered {
		t.Fatalf("TE trace failed: %s", tr.Reason)
	}
	if !strings.Contains(tr.String(), "X") || !strings.Contains(tr.String(), "Y") {
		t.Fatalf("trace did not follow TE path:\n%s", tr.String())
	}
}

func TestDOTExport(t *testing.T) {
	b := buildSmall(Config{Seed: 77})
	twoSites(b)
	f, _ := b.FlowBetween("f", "hq", "branch", 80)
	trafgen.CBR(b.Net, f, 1400, sim.Millisecond, 0, sim.Second)
	b.Net.Run()
	dot := b.DOT()
	for _, want := range []string{
		"digraph backbone", `"PE1" [shape=box`, `"P1" [shape=circle`,
		`"ce-hq" [shape=house`, "(acme)", "10M", "util",
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Duplex links render once.
	if strings.Count(dot, `"PE1" -> "P1"`)+strings.Count(dot, `"P1" -> "PE1"`) != 1 {
		t.Fatalf("duplex link rendered twice:\n%s", dot)
	}
	// Failed links are dashed red.
	b.FailLink("P1", "P2", 0)
	if !strings.Contains(b.DOT(), "color=red") {
		t.Fatal("failed link not highlighted")
	}
}

func TestAccessorsAndStrings(t *testing.T) {
	b := buildSmall(Config{Seed: 150})
	twoSites(b)
	ce, ok := b.Site("hq")
	if !ok || b.Net.Router(ce).Name != "ce-hq" {
		t.Fatalf("Site accessor: %v %v", ce, ok)
	}
	if _, ok := b.Site("ghost"); ok {
		t.Fatal("ghost site found")
	}
	names := b.SiteNames()
	if len(names) != 2 {
		t.Fatalf("SiteNames = %v", names)
	}
	for _, k := range []SchedulerKind{SchedFIFO, SchedPriority, SchedWFQ, SchedDRR, SchedHybrid} {
		if k.String() == "" {
			t.Fatal("empty scheduler name")
		}
	}
}

func TestIPSecPerClassMeshInCore(t *testing.T) {
	b := buildSmall(Config{Seed: 151, PlainIP: true, Scheduler: SchedHybrid})
	b.DefineVPN("acme")
	b.AddSite(SiteSpec{VPN: "acme", Name: "hq", PE: "PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.AddSite(SiteSpec{VPN: "acme", Name: "branch", PE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	if n := b.BuildIPSecMeshPerClass("acme", true); n != 1 {
		t.Fatalf("tunnels = %d", n)
	}
	voice, _ := b.FlowBetween("v", "hq", "branch", 5060)
	voice.DSCP = packet.DSCPEF
	bulk, _ := b.FlowBetween("bk", "hq", "branch", 80)
	trafgen.CBR(b.Net, voice, 160, 20*sim.Millisecond, 0, sim.Second)
	trafgen.CBR(b.Net, bulk, 1400, 2*sim.Millisecond, 0, sim.Second)
	b.Net.Run()
	if voice.Stats.Delivered != voice.Stats.Sent {
		t.Fatalf("voice: %d/%d", voice.Stats.Delivered, voice.Stats.Sent)
	}
	// Per-class SAs: even with reordering across classes, no replay drops.
	for _, site := range b.SiteNames() {
		ce, _ := b.Site(site)
		for _, sa := range b.Net.Router(ce).DecapSAs {
			if sa.ReplayDrops != 0 {
				t.Fatalf("replay drops with per-class SAs: %d", sa.ReplayDrops)
			}
		}
	}
}

func TestVPNSLATriggersClassTE(t *testing.T) {
	// A gold VPN re-marked to voice at the edge must ride the voice-class
	// TE LSP even though the customer sent best-effort packets.
	b := NewBackbone(Config{Seed: 161})
	b.AddPE("PE1")
	b.AddP("M")
	b.AddP("X")
	b.AddP("Y")
	b.AddPE("PE2")
	b.Link("PE1", "M", 10e6, sim.Millisecond, 1)
	b.Link("M", "PE2", 10e6, sim.Millisecond, 1)
	b.Link("PE1", "X", 10e6, sim.Millisecond, 2)
	b.Link("X", "Y", 10e6, sim.Millisecond, 2)
	b.Link("Y", "PE2", 10e6, sim.Millisecond, 2)
	b.BuildProvider()
	b.DefineVPN("gold")
	b.SetVPNSLA("gold", qosVoice)
	b.AddSite(SiteSpec{VPN: "gold", Name: "a", PE: "PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.AddSite(SiteSpec{VPN: "gold", Name: "z", PE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	b.ConvergeVPNs()
	long := b.G.KShortestPaths(b.mustNode("PE1"), b.mustNode("PE2"), 2, topo.Constraints{})[1]
	if _, err := b.SetupTELSP("voicete", "PE1", "PE2", 1e6, qosVoice, rsvp.SetupOptions{Explicit: &long}); err != nil {
		t.Fatal(err)
	}
	f, _ := b.FlowBetween("f", "a", "z", 80) // customer sends BE
	trafgen.CBR(b.Net, f, 200, 10*sim.Millisecond, 0, 300*sim.Millisecond)
	b.Net.Run()
	if f.Stats.Delivered != f.Stats.Sent {
		t.Fatalf("delivery %d/%d", f.Stats.Delivered, f.Stats.Sent)
	}
	if b.Router("X").LabelLookups == 0 {
		t.Fatal("gold traffic ignored the voice TE LSP")
	}
}

func TestPing(t *testing.T) {
	b := buildSmall(Config{Seed: 170})
	twoSites(b)
	rtt, ok := b.Ping("hq", addr.MustParseIPv4("10.2.0.1"), sim.Second)
	if !ok {
		t.Fatal("ping lost")
	}
	// 5 links ≈ 5ms propagation plus serialization.
	if rtt < 5*sim.Millisecond || rtt > 10*sim.Millisecond {
		t.Fatalf("ping latency = %v", rtt)
	}
	// Unreachable destination: times out.
	if _, ok := b.Ping("hq", addr.MustParseIPv4("99.0.0.1"), 100*sim.Millisecond); ok {
		t.Fatal("ping to nowhere delivered")
	}
	if _, ok := b.Ping("ghost", addr.MustParseIPv4("10.2.0.1"), sim.Second); ok {
		t.Fatal("ping from unknown site")
	}
}

func TestEFLimitProtectsLowerTiers(t *testing.T) {
	// An unpoliced customer floods EF at ~12 Mb/s into a 10 Mb/s core.
	run := func(capFrac float64) (businessLoss float64) {
		b := buildSmall(Config{Seed: 171, Scheduler: SchedHybrid, EFLimitFraction: capFrac})
		twoSites(b)
		flood, _ := b.FlowBetween("flood", "hq", "branch", 5060)
		flood.DSCP = packet.DSCPEF
		biz, _ := b.FlowBetween("biz", "hq", "branch", 443)
		biz.DSCP = packet.DSCPAF41
		trafgen.CBR(b.Net, flood, 1400, 900*sim.Microsecond, 0, 2*sim.Second)
		trafgen.CBR(b.Net, biz, 400, 4*sim.Millisecond, 0, 2*sim.Second)
		b.Net.RunUntil(3 * sim.Second)
		return biz.Stats.LossRate()
	}
	unprotected := run(0)
	protected := run(0.5) // EF capped at 50% of each link
	if unprotected < 0.10 {
		t.Fatalf("EF flood did not hurt business without a cap: %v", unprotected)
	}
	if protected > 0.001 {
		t.Fatalf("EF cap failed to protect business: %v", protected)
	}
}
