package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/stats"
	"mplsvpn/internal/telemetry"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

// deliveryShadow is delivery and drop accounting as it was before flow
// slots: every delivery finds its site by CE, its flow and AIMD source by
// hashed 5-tuple, its VPN's instruments and SLA window by name, and its
// flow-export key by a prefix walk and four strings. It runs beside a
// backbone's own accounting over the same deliveries and drops, into state
// of its own, as the oracle for the indexed path.
type deliveryShadow struct {
	b *Backbone

	flows, aimd map[packet.FlowKey]string // 5-tuple -> flow name, as registered
	stats       map[string]*stats.FlowStats
	acks        map[string]int
	losses      map[string]int
	isolation   int

	reg     *telemetry.Registry
	vpnTel  map[string]*vpnTel
	watcher *telemetry.Watcher
	export  *telemetry.FlowExporter
	// onRoll runs after the shadow closes an export interval.
	onRoll func()
}

func newDeliveryShadow(interval sim.Time, slas []telemetry.SLATarget) *deliveryShadow {
	sh := &deliveryShadow{
		flows: map[packet.FlowKey]string{}, aimd: map[packet.FlowKey]string{},
		stats: map[string]*stats.FlowStats{}, acks: map[string]int{}, losses: map[string]int{},
		reg: telemetry.NewRegistry(), vpnTel: map[string]*vpnTel{},
		watcher: telemetry.NewWatcher(slas, nil),
		export:  telemetry.NewFlowExporter(interval),
	}
	sh.export.OnRoll = func(_, end sim.Time) {
		sh.watcher.Eval(end)
		if sh.onRoll != nil {
			sh.onRoll()
		}
	}
	return sh
}

// attach makes b the backbone the shadow follows: its deliveries through a
// caller hook, which runs after the backbone's own accounting, and its drops
// ahead of the backbone's drop hooks.
func (sh *deliveryShadow) attach(b *Backbone) {
	sh.b = b
	b.OnDeliver(sh.deliver)
	prev := b.Net.OnDrop
	b.Net.OnDrop = func(at topo.NodeID, p *packet.Packet, reason packet.DropReason) {
		sh.drop(p)
		prev(at, p, reason)
	}
}

// register mirrors registerFlow (aimd false) or AttachAIMD (aimd true).
func (sh *deliveryShadow) register(f *trafgen.Flow, aimd bool) {
	m := sh.flows
	if aimd {
		m = sh.aimd
	}
	m[flowKeyOf(f)] = f.Name
	if sh.stats[f.Name] == nil {
		sh.stats[f.Name] = &stats.FlowStats{Name: f.Name}
	}
}

// siteByCE is the site map the backbone used to keep, from the live sites.
func (sh *deliveryShadow) siteByCE(at topo.NodeID) (*siteRecord, bool) {
	for _, rec := range sh.b.sites {
		if rec.CE == at || slices.Contains(rec.hosts, at) {
			return rec, true
		}
	}
	return nil, false
}

// siteByPrefix is the longest-prefix match over the live sites' prefixes.
func (sh *deliveryShadow) siteByPrefix(ip addr.IPv4) (*siteRecord, bool) {
	var best *siteRecord
	bestLen := -1
	for _, rec := range sh.b.sites {
		for _, p := range rec.Spec.Prefixes {
			if p.Contains(ip) && int(p.Len) > bestLen {
				best, bestLen = rec, int(p.Len)
			}
		}
	}
	return best, best != nil
}

func (sh *deliveryShadow) vpnTelFor(vpn string) *vpnTel {
	vt, ok := sh.vpnTel[vpn]
	if !ok {
		l := telemetry.Labels{VPN: vpn}
		vt = &vpnTel{
			delivered: sh.reg.Counter("vpn_delivered_bytes", l),
			dropped:   sh.reg.Counter("vpn_dropped_pkts", l),
			latency:   sh.reg.Histogram("vpn_latency_ms", l),
		}
		sh.vpnTel[vpn] = vt
	}
	return vt
}

func (sh *deliveryShadow) deliver(at topo.NodeID, p *packet.Packet) {
	b := sh.b
	if p.OriginVPN != "" {
		if rec, ok := sh.siteByCE(at); ok && !b.legitimateDelivery(p.OriginVPN, rec.Spec.VPN) {
			sh.isolation++
		}
	}
	if name, ok := sh.flows[p.FlowKey()]; ok {
		sh.stats[name].RecordDelivery(p.SentAt, b.E.Now(), p.Payload)
	}
	if name, ok := sh.aimd[p.FlowKey()]; ok {
		sh.acks[name]++
	}

	now := b.E.Now()
	rec, ok := sh.siteByCE(at)
	if !ok {
		return
	}
	vpn := rec.Spec.VPN
	latMs := float64(now-p.SentAt) / float64(sim.Millisecond)
	size := p.SerializedLen()
	vt := sh.vpnTelFor(vpn)
	vt.delivered.Add(int64(size))
	vt.latency.Observe(latMs)
	sh.watcher.Window(vpn).ObserveDelivery(latMs)
	srcSite := ""
	if src, ok := sh.siteByPrefix(p.IP.Src); ok {
		srcSite = src.Spec.Name
	}
	sh.export.Record(now, telemetry.FlowKey{
		VPN: vpn, SrcSite: srcSite, DstSite: rec.Spec.Name,
		Class: qos.ClassOf(p).String(),
	}, size)
}

func (sh *deliveryShadow) drop(p *packet.Packet) {
	if name, ok := sh.aimd[p.FlowKey()]; ok {
		sh.losses[name]++
	}
	if p.OriginVPN == "" {
		return
	}
	sh.vpnTelFor(p.OriginVPN).dropped.Inc()
	sh.watcher.Window(p.OriginVPN).ObserveDrop()
}

// stateBytes is a walk's checkpoint encoding.
func stateBytes(walk func(*snapshot.Codec)) []byte {
	var w snapshot.Writer
	walk(snapshot.Saver(&w))
	return w.Data()
}

// vpnSeries renders the per-VPN delivery instruments of a registry.
func vpnSeries(reg *telemetry.Registry) string {
	var sb strings.Builder
	for _, m := range reg.Snapshot() {
		if strings.HasPrefix(m.Name, "vpn_") {
			fmt.Fprintf(&sb, "%s %v\n", m, m.Buckets)
		}
	}
	return sb.String()
}

// shadowRig is the scenario TestDeliveryAccountingMatchesReference runs:
// three sites of VPN acme on the four-router line with 10 Mb/s links, the
// hybrid scheduler and WRED, telemetry with an SLA watcher, and every kind
// of flow the accounting tells apart.
type shadowRig struct {
	b     *Backbone
	flows map[string]*trafgen.Flow
	bulk  *trafgen.AIMD
}

const shadowInterval = 50 * sim.Millisecond

var shadowSLAs = []telemetry.SLATarget{
	{VPN: "acme", MaxP99Ms: 12, MaxLoss: 0.02, Sustain: 1, Clear: 1},
	{VPN: "beta", MaxLoss: 0.5, Sustain: 1, Clear: 1},
}

func buildShadowRig(t *testing.T, sh *deliveryShadow) *shadowRig {
	b := buildSmall(Config{Seed: 5, Scheduler: SchedHybrid, WRED: true, QueueBytes: 24 * 1024})
	b.DefineVPN("acme")
	b.DefineVPN("beta") // no sites: the origin a spoofed flow claims
	for _, s := range []SiteSpec{
		{VPN: "acme", Name: "hq", PE: "PE1", Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}},
		{VPN: "acme", Name: "branch", PE: "PE2", Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}},
		{VPN: "acme", Name: "branch2", PE: "PE2", Prefixes: []addr.Prefix{addr.MustParsePrefix("10.3.0.0/16")}},
	} {
		b.AddSite(s)
	}
	b.ConvergeVPNs()
	b.EnableTelemetry(TelemetryOptions{Interval: shadowInterval, SLAs: shadowSLAs})

	r := &shadowRig{b: b, flows: map[string]*trafgen.Flow{}}
	const stop = sim.Second
	flow := func(name, to string, port uint16, dscp packet.DSCP) *trafgen.Flow {
		f, err := b.FlowBetween(name, "hq", to, port)
		if err != nil {
			t.Fatal(err)
		}
		f.DSCP = dscp
		sh.register(f, false)
		r.flows[name] = f
		return f
	}
	voice := flow("voice", "branch", 5060, packet.DSCPEF)
	b.RegisterSource(trafgen.CBR(b.Net, voice, 160, 20*sim.Millisecond, 0, stop))
	biz := flow("biz", "branch2", 443, packet.DSCPAF41)
	b.RegisterSource(trafgen.Poisson(b.Net, biz, 600, 400, sim.Millisecond, stop, sim.NewRand(9)))
	// Two flows on one 5-tuple: the later registration is credited. They
	// claim different origins, so one tuple's drops count against two VPNs.
	for i, name := range []string{"dup1", "dup2"} {
		f := flow(name, "branch2", 9000, packet.DSCPBestEffort)
		b.RegisterSource(trafgen.CBR(b.Net, f, 300, 7*sim.Millisecond, sim.Time(i+2)*sim.Millisecond, stop))
	}
	r.flows["dup1"].VPN = "beta"
	// Injected at an acme site but claiming VPN beta: isolation violations.
	spoof := flow("spoof", "branch", 7000, packet.DSCPBestEffort)
	spoof.VPN = "beta"
	b.RegisterSource(trafgen.CBR(b.Net, spoof, 200, 11*sim.Millisecond, 3*sim.Millisecond, stop))
	// Re-registered under another port mid-run.
	mover := flow("mover", "branch", 8000, packet.DSCPAF21)
	b.RegisterSource(trafgen.CBR(b.Net, mover, 500, 5*sim.Millisecond, 4*sim.Millisecond, stop))
	// Greedy bulk under AIMD: the congestion, the drops, the acks.
	bulk := flow("bulk", "branch", 20, packet.DSCPBestEffort)
	r.bulk = b.AttachAIMD(bulk, 1400, stop)
	sh.register(bulk, true)
	r.bulk.Start(0)

	sh.attach(b)
	b.E.MarkSetup()
	return r
}

// TestDeliveryAccountingMatchesReference runs the indexed delivery and drop
// accounting against deliveryShadow over one congested run that takes every
// path the index can take or miss: flows on their slots, two flows on one
// 5-tuple, a flow re-registered under a new tuple with its old packets still
// in flight, packets restored from a checkpoint (no slot) and re-registered
// tuples, an isolation-violating origin, a site removed and revived, and a
// site added whose prefix takes over the senders' source address. At every
// export interval, and at the end, the backbone's FlowStats, per-VPN
// counters and histograms, SLA windows, flow records, isolation count and
// AIMD feedback must equal the shadow's.
func TestDeliveryAccountingMatchesReference(t *testing.T) {
	sh := newDeliveryShadow(shadowInterval, shadowSLAs)
	r := buildShadowRig(t, sh)
	rolls := 0
	check := func(when string) {
		t.Helper()
		b := sh.b
		for name, f := range r.flows {
			ref := sh.stats[name]
			ref.Sent = f.Stats.Sent // the shadow sees deliveries only
			if !bytes.Equal(stateBytes(f.Stats.State), stateBytes(ref.State)) {
				t.Fatalf("%s: flow %s: stats %s, shadow %s", when, name, f.Stats.Summary(), ref.Summary())
			}
		}
		if got, want := vpnSeries(b.tel.Reg), vpnSeries(sh.reg); got != want {
			t.Fatalf("%s: per-VPN series\n%s\nshadow\n%s", when, got, want)
		}
		if !bytes.Equal(stateBytes(b.tel.Watcher.State), stateBytes(sh.watcher.State)) {
			t.Fatalf("%s: SLA windows differ: %+v, shadow %+v", when, b.tel.Watcher.Status(), sh.watcher.Status())
		}
		if got, want := b.tel.Flows.Records(), sh.export.Records(); !slices.Equal(got, want) {
			t.Fatalf("%s: %d flow records, shadow %d", when, len(got), len(want))
		}
		if b.IsolationViolations != sh.isolation {
			t.Fatalf("%s: %d isolation violations, shadow %d", when, b.IsolationViolations, sh.isolation)
		}
		// AIMD's ack ledger, and its in-flight count against every send
		// less the acks and losses the shadow dispatched.
		c := snapshot.Loader(snapshot.NewReader(stateBytes(r.bulk.State)))
		var window, ssthresh float64
		var inFlight int
		c.F64(&window)
		c.F64(&ssthresh)
		snapshot.Int(c, &inFlight)
		acked := c.U64(0)
		sent := r.flows["bulk"].Stats.Sent
		if int(acked) != sh.acks["bulk"] || inFlight != sent-sh.acks["bulk"]-sh.losses["bulk"] {
			t.Fatalf("%s: AIMD acked %d in flight %d of %d sent; shadow dispatched %d acks, %d losses",
				when, acked, inFlight, sent, sh.acks["bulk"], sh.losses["bulk"])
		}
	}
	sh.onRoll = func() {
		rolls++
		check(fmt.Sprintf("interval %d (t=%v)", rolls, sh.b.E.Now()))
	}

	b := r.b
	b.Net.RunUntil(300 * sim.Millisecond)
	data, err := b.Snapshot("shadow")
	if err != nil {
		t.Fatal(err)
	}
	// Resume on a rebuild: packets in flight come back without a slot.
	r = buildShadowRig(t, sh)
	if err := r.b.Restore(data, "shadow"); err != nil {
		t.Fatal(err)
	}
	b = r.b
	steps := []struct {
		at sim.Time
		do func()
	}{
		{450 * sim.Millisecond, func() {
			// Readdressed: until it is re-registered, its packets carry the
			// old tuple's slot and a tuple nothing credits.
			r.flows["mover"].DstPort = 8001
		}},
		{500 * sim.Millisecond, func() {
			b.ReregisterFlow(r.flows["mover"])
			sh.register(r.flows["mover"], false)
		}},
		{600 * sim.Millisecond, func() {
			if err := b.RemoveSite("branch2"); err != nil {
				t.Fatal(err)
			}
			b.ConvergeVPNs()
		}},
		{700 * sim.Millisecond, func() {
			// A more specific prefix now owns the senders' address 10.1.0.1.
			b.AddSite(SiteSpec{VPN: "acme", Name: "lab", PE: "PE2",
				Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/24")}})
			b.ConvergeVPNs()
		}},
		{800 * sim.Millisecond, func() {
			b.AddSite(SiteSpec{VPN: "acme", Name: "branch2", PE: "PE2",
				Prefixes: []addr.Prefix{addr.MustParsePrefix("10.3.0.0/16")}})
			b.ConvergeVPNs()
		}},
	}
	for _, s := range steps {
		b.Net.RunUntil(s.at)
		s.do()
	}
	b.Net.Run()
	check("end")
	if !bytes.Equal(stateBytes(b.tel.Flows.State), stateBytes(sh.export.State)) {
		t.Fatal("end: the flow exporters' accumulators differ")
	}

	// The run reached what it is for.
	lab := false
	for _, rec := range b.tel.Flows.Records() {
		lab = lab || rec.SrcSite == "lab"
	}
	moved := r.flows["mover"].Stats.Delivered
	switch {
	case rolls < 15:
		t.Fatalf("only %d export intervals compared", rolls)
	case sh.isolation == 0 || sh.losses["bulk"] == 0 || sh.acks["bulk"] == 0:
		t.Fatalf("isolation %d, AIMD losses %d acks %d: a path went unexercised", sh.isolation, sh.losses["bulk"], sh.acks["bulk"])
	case r.flows["dup2"].Stats.Delivered == 0 || r.flows["dup1"].Stats.Delivered != 0:
		t.Fatal("the shared 5-tuple did not credit its later registration alone")
	case !lab:
		t.Fatal("no flow record names the site that took over the senders' prefix")
	case moved == 0:
		t.Fatal("the re-registered flow was never credited")
	}
	for _, st := range b.tel.Watcher.Status() {
		if st.VPN == "acme" && st.Breaches == 0 {
			t.Fatal("acme's SLA never breached: the windows carried nothing to compare")
		}
	}
}

// TestDeliverZeroAlloc: with telemetry and an SLA watcher on, once a flow's
// slot has resolved what it accounts into, a delivery and a drop allocate
// nothing inside an export interval (where nothing is flushed) — on the slot
// and on the map path alike.
func TestDeliverZeroAlloc(t *testing.T) {
	b := buildSmall(Config{Seed: 2})
	twoSites(b)
	b.EnableTelemetry(TelemetryOptions{SLAs: []telemetry.SLATarget{{VPN: "acme", MaxP99Ms: 50}}})
	f, err := b.FlowBetween("f", "hq", "branch", 80)
	if err != nil {
		t.Fatal(err)
	}
	trafgen.CBR(b.Net, f, 200, sim.Millisecond, 0, 200*sim.Millisecond)
	b.Net.Run()
	at, _ := b.Site("branch")
	for name, p := range map[string]*packet.Packet{"slot": f.Packet(200), "map": f.Packet(200)} {
		if name == "map" {
			p.FlowSlot = 0
		} else if b.slotOf(p) == nil {
			t.Fatal("the flow's packets carry no slot")
		}
		p.SentAt = b.E.Now()
		delivered := f.Stats.Delivered
		if got := testing.AllocsPerRun(200, func() { b.onDeliver(at, p) }); got != 0 {
			t.Errorf("%s path: a delivery allocates %v", name, got)
		}
		if f.Stats.Delivered == delivered {
			t.Fatalf("%s path: the deliveries were not credited", name)
		}
		if got := testing.AllocsPerRun(200, func() { b.Net.OnDrop(at, p, packet.DropQueueOverflow) }); got != 0 {
			t.Errorf("%s path: a drop allocates %v", name, got)
		}
	}
}
