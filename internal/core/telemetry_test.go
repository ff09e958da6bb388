package core

import (
	"strings"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
	"mplsvpn/internal/trafgen"
)

// breachBackbone builds the two-path backbone of the SLA-watcher demo: the
// voice VPN rides a TE LSP on the cheap top path PE1-P1-PE2, a bulk VPN
// enters at PEb and normally exits via P2. Failing PEb-P2 shoves the bulk
// aggregate onto P1-PE2, congesting the voice path.
func breachBackbone(seed uint64) (*Backbone, *trafgen.Flow, *trafgen.Flow) {
	b := NewBackbone(Config{Seed: seed, Scheduler: SchedFIFO})
	b.AddPE("PE1")
	b.AddPE("PEb")
	b.AddP("P1")
	b.AddP("P2")
	b.AddPE("PE2")
	b.Link("PE1", "P1", 10e6, sim.Millisecond, 1)
	b.Link("P1", "PE2", 10e6, sim.Millisecond, 1)
	b.Link("PE1", "P2", 10e6, sim.Millisecond, 2)
	b.Link("P2", "PE2", 10e6, sim.Millisecond, 2)
	b.Link("PEb", "P1", 10e6, sim.Millisecond, 5)
	b.Link("PEb", "P2", 10e6, sim.Millisecond, 1)
	b.BuildProvider()

	b.DefineVPN("voip")
	b.DefineVPN("bulk")
	b.AddSite(SiteSpec{VPN: "voip", Name: "v-hq", PE: "PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.AddSite(SiteSpec{VPN: "voip", Name: "v-br", PE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	b.AddSite(SiteSpec{VPN: "bulk", Name: "b-src", PE: "PEb",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.3.0.0/16")}})
	b.AddSite(SiteSpec{VPN: "bulk", Name: "b-dst", PE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.4.0.0/16")}})
	b.ConvergeVPNs()

	if _, err := b.SetupTELSPForVPN("voice-te", "PE1", "PE2", "voip", 2e6, -1, rsvp.SetupOptions{}); err != nil {
		panic(err)
	}

	voice, err := b.FlowBetween("voice", "v-hq", "v-br", 5060)
	if err != nil {
		panic(err)
	}
	voice.DSCP = packet.DSCPEF
	bulk, err := b.FlowBetween("bulk", "b-src", "b-dst", 80)
	if err != nil {
		panic(err)
	}
	return b, voice, bulk
}

// runBreachScenario drives the failure and returns the telemetry plane:
// voice CBR for 6s, bulk 11+ Mb/s CBR, PEb-P2 fails at t=2s.
func runBreachScenario(seed uint64) (*Backbone, *telemetry.Telemetry) {
	b, voice, bulk := breachBackbone(seed)
	tel := b.EnableTelemetry(TelemetryOptions{
		Horizon: 6 * sim.Second,
		SLAs: []telemetry.SLATarget{
			{VPN: "voip", MaxP99Ms: 20, MaxLoss: 0.02},
		},
	})
	trafgen.CBR(b.Net, voice, 160, 20*sim.Millisecond, 0, 6*sim.Second)
	trafgen.CBR(b.Net, bulk, 1400, sim.Millisecond, 0, 6*sim.Second)
	b.At(2*sim.Second, func() { b.FailLink("PEb", "P2", 10*sim.Millisecond) })
	b.Net.RunUntil(7 * sim.Second)
	return b, tel
}

// The tentpole acceptance test: a sustained SLA breach triggers a
// congestion-aware reoptimize that moves the voice LSP off the hot link,
// after which the SLA recovers — all visible in the journal.
func TestSLAWatcherFiresReoptimize(t *testing.T) {
	b, tel := runBreachScenario(7)

	journal := tel.Journal.Render()
	for _, want := range []string{"link_down", "sla_breach", "lsp_reoptimized", "sla_clear"} {
		if !strings.Contains(journal, want) {
			t.Fatalf("journal missing %q:\n%s", want, journal)
		}
	}
	// Causal order: failure -> breach -> reoptimize -> recovery.
	idx := func(s string) int { return strings.Index(journal, s) }
	if !(idx("link_down") < idx("sla_breach") && idx("sla_breach") < idx("lsp_reoptimized") &&
		idx("lsp_reoptimized") < idx("sla_clear")) {
		t.Fatalf("journal out of causal order:\n%s", journal)
	}

	// The voice LSP must have left the congested P1-PE2 link for the P2 path.
	var found bool
	for _, l := range b.RSVP.LSPs() {
		if l.Name != "voice-te" || l.State != rsvp.Up {
			continue
		}
		found = true
		path := ""
		for i, n := range l.Path.Nodes(b.G) {
			if i > 0 {
				path += "-"
			}
			path += b.G.Name(n)
		}
		if path != "PE1-P2-PE2" {
			t.Fatalf("voice LSP path = %s, want PE1-P2-PE2", path)
		}
	}
	if !found {
		t.Fatal("voice LSP not up after recovery")
	}
	if st := tel.Watcher.Status(); len(st) != 1 || st[0].Breached || st[0].Breaches != 1 {
		t.Fatalf("watcher status = %+v", st)
	}
}

// Same seed, same bytes: the journal and the full snapshot must be
// byte-identical across runs — the property that makes telemetry output
// diffable across experiments.
func TestTelemetryDeterminism(t *testing.T) {
	bb1, tel1 := runBreachScenario(7)
	bb2, tel2 := runBreachScenario(7)

	j1, j2 := tel1.Journal.Render(), tel2.Journal.Render()
	if j1 != j2 {
		t.Fatalf("journals differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", j1, j2)
	}
	if d1, d2 := bb1.StateDigest(), bb2.StateDigest(); d1 != d2 {
		t.Fatalf("state digests differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", d1, d2)
	}
	s1 := tel1.Snapshot(7 * sim.Second)
	s2 := tel2.Snapshot(7 * sim.Second)
	b1, err := s1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("snapshot JSON differs between same-seed runs")
	}
	if len(s1.Flows) == 0 || len(s1.Metrics) == 0 {
		t.Fatalf("snapshot unexpectedly empty: %d flows, %d metrics", len(s1.Flows), len(s1.Metrics))
	}
}

// The flow exporter must attribute traffic to (vpn, src-site, dst-site,
// class), and per-VPN delivery counters must accumulate.
func TestTelemetryFlowAttribution(t *testing.T) {
	b := buildSmall(Config{Seed: 3})
	twoSites(b)
	tel := b.EnableTelemetry(TelemetryOptions{})
	f, err := b.FlowBetween("f", "hq", "branch", 5060)
	if err != nil {
		t.Fatal(err)
	}
	f.DSCP = packet.DSCPEF
	trafgen.CBR(b.Net, f, 160, 10*sim.Millisecond, 0, sim.Second)
	b.Net.Run()

	snap := b.TelemetrySnapshot()
	var rec *telemetry.FlowRecord
	for i := range snap.Flows {
		if snap.Flows[i].Class == "voice" {
			rec = &snap.Flows[i]
			break
		}
	}
	if rec == nil {
		t.Fatalf("no voice flow record in %d records", len(snap.Flows))
	}
	if rec.VPN != "acme" || rec.SrcSite != "hq" || rec.DstSite != "branch" {
		t.Fatalf("flow record = %+v", rec)
	}
	if v := tel.Reg.Counter("vpn_delivered_bytes", telemetry.Labels{VPN: "acme"}).Value(); v == 0 {
		t.Fatal("vpn_delivered_bytes not accumulating")
	}
	if h := tel.Reg.Histogram("vpn_latency_ms", telemetry.Labels{VPN: "acme"}); h.Count() == 0 {
		t.Fatal("vpn_latency_ms not accumulating")
	}
}

// EnableTelemetry before BuildProvider must work identically: ports attach
// when the scheduler factory runs, RSVP wires when the protocol is created.
func TestEnableTelemetryBeforeBuild(t *testing.T) {
	b := NewBackbone(Config{Seed: 4})
	tel := b.EnableTelemetry(TelemetryOptions{})
	b.AddPE("PE1")
	b.AddP("P1")
	b.AddP("P2")
	b.AddPE("PE2")
	b.Link("PE1", "P1", 10e6, sim.Millisecond, 1)
	b.Link("P1", "P2", 10e6, sim.Millisecond, 1)
	b.Link("P2", "PE2", 10e6, sim.Millisecond, 1)
	b.BuildProvider()
	twoSites(b)
	if _, err := b.SetupTELSP("t", "PE1", "PE2", 1e6, -1, rsvp.SetupOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tel.Journal.Render(), "lsp_up") {
		t.Fatal("LSP setup not journaled when telemetry enabled before build")
	}
	f, _ := b.FlowBetween("f", "hq", "branch", 80)
	trafgen.CBR(b.Net, f, 200, 10*sim.Millisecond, 0, 100*sim.Millisecond)
	b.Net.Run()
	snap := b.TelemetrySnapshot()
	var offered int64
	for _, m := range snap.Metrics {
		if m.Name == "port_offered_bytes" {
			offered += int64(m.Value)
		}
	}
	if offered == 0 {
		t.Fatal("port counters not attached when enabled before build")
	}
}

// Drops must be attributed to their typed cause in telemetry: a queue
// overflow increments net_dropped_packets{reason=queue_overflow}, and the
// per-reason series never conflates causes (the misattribution fixed in
// device.receiveLabeled would show up here as the wrong label).
func TestTelemetryDropReasonLabels(t *testing.T) {
	b := buildSmall(Config{Seed: 9})
	twoSites(b)
	tel := b.EnableTelemetry(TelemetryOptions{})
	f, err := b.FlowBetween("f", "hq", "branch", 5060)
	if err != nil {
		t.Fatal(err)
	}
	// Overdrive the access link so the egress queue overflows.
	trafgen.CBR(b.Net, f, 1400, 10*sim.Microsecond, 0, 50*sim.Millisecond)
	b.Net.Run()
	if b.Net.Dropped == 0 {
		t.Fatal("workload did not overflow any queue")
	}
	overflow := tel.Reg.Counter("net_dropped_packets",
		telemetry.Labels{Reason: packet.DropQueueOverflow.String()}).Value()
	if overflow == 0 {
		t.Fatal("queue overflow drops not counted under reason=queue_overflow")
	}
	var total int64
	for _, m := range b.TelemetrySnapshot().Metrics {
		if m.Name == "net_dropped_packets" {
			total += int64(m.Value)
		}
	}
	if total != int64(b.Net.Dropped) {
		t.Fatalf("per-reason drop counters sum to %d, network dropped %d", total, b.Net.Dropped)
	}
}
