package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/core"
	"mplsvpn/internal/device"
	"mplsvpn/internal/ldp"
	"mplsvpn/internal/mpls"
	"mplsvpn/internal/netsim"
	"mplsvpn/internal/ospf"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

// The per-layer probes: one loop of calls into an exported function per
// metric, timed from outside. A layer is costed alone here so that the
// attribution table can set count x probe cost against the end-to-end figure.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// probeBatch is the least host time one timed probe batch runs for. The
// smoke test shortens it.
var probeBatch = 20 * time.Millisecond

// nsPerOp times loop(n), growing n until one batch takes at least
// probeBatch, and returns the fastest of three batches in ns per operation.
// The fastest batch is the one least disturbed by the host; the probes are
// not gated.
func nsPerOp(loop func(n int)) float64 {
	n := 1000
	for {
		t0 := time.Now()
		loop(n)
		if d := time.Since(t0); d >= probeBatch || n >= 1<<26 {
			break
		}
		n *= 4
	}
	best := 0.0
	for i := 0; i < 3; i++ {
		runtime.GC()
		t0 := time.Now()
		loop(n)
		if ns := float64(time.Since(t0).Nanoseconds()) / float64(n); i == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// holdAct is the classic hold model of a pending-event set: every executed
// event schedules one successor a random interval ahead, so the heap stays
// at the depth it was seeded with.
type holdAct struct {
	e *sim.Engine
	r *rng
}

func (a *holdAct) Run() { a.e.PostAfter(sim.Time(1+a.r.intn(1_000_000)), a) }

func holdNs(depth int) float64 {
	e := sim.NewEngine(1)
	r := newRng(1, "hold")
	for i := 0; i < depth; i++ {
		e.PostAfter(sim.Time(1+r.intn(1_000_000)), &holdAct{e: e, r: r})
	}
	return nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			e.Step()
		}
	})
}

func lpmNs(prefixes int) float64 {
	r := newRng(2, "lpm")
	t := addr.NewTable[int]()
	for i := 0; i < prefixes; i++ {
		t.Insert(addr.NewPrefix(addr.IPv4(r.next()), uint8(16+r.intn(17))), i)
	}
	probes := make([]addr.IPv4, 4096)
	for i := range probes {
		probes[i] = addr.IPv4(r.next())
	}
	return nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			v, _ := t.Lookup(probes[i&4095])
			sink += uint64(v)
		}
	})
}

func testPacket(dscp packet.DSCP, payload int) *packet.Packet {
	p := &packet.Packet{
		IP:      packet.IPv4Header{DSCP: dscp, TTL: 64, Protocol: packet.ProtoUDP, Src: 0x0a000101, Dst: 0x0a000201},
		L4:      packet.L4Header{SrcPort: 40000, DstPort: 5060},
		Payload: payload,
	}
	p.RefreshWire()
	return p
}

// schedNs times one Enqueue plus one Dequeue on s with backlog packets
// already queued, spread over the voice, business and best-effort classes.
func schedNs(s qos.Scheduler, backlog int) float64 {
	dscps := []packet.DSCP{packet.DSCPBestEffort, packet.DSCPAF41, packet.DSCPEF}
	pkts := make([]*packet.Packet, 64)
	for i := range pkts {
		pkts[i] = testPacket(dscps[i%3], 200)
	}
	for i := 0; i < backlog; i++ {
		p := pkts[i%64]
		s.Enqueue(0, qos.ClassOf(p), testPacket(p.IP.DSCP, 200))
	}
	return nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			p := pkts[i&63]
			s.Enqueue(sim.Time(i), qos.ClassOf(p), p)
			if q := s.Dequeue(sim.Time(i)); q != nil {
				sink += uint64(q.Payload)
			}
		}
	})
}

// fasterOf runs a measurement twice and keeps the faster, the one the host
// disturbed less.
func fasterOf(measure func() float64) float64 {
	return min(measure(), measure())
}

// emitNs times one source tick, from the event that fires it to Inject, on
// a network with no router at the injection node: the packet is filled,
// injected, dropped at once and recycled.
func emitNs() float64 {
	g := topo.New()
	at := g.AddNode("src")
	e := sim.NewEngine(1)
	n := netsim.New(e, g)
	f := trafgen.NewFlow("probe", at, 0x0a000101, 0x0a000201, 5060)
	trafgen.CBR(n, f, 200, sim.Microsecond, 0, sim.MaxTime/2)
	return nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			e.Step()
		}
	})
}

// probeCommon runs the probes that need no built scenario.
func probeCommon(layer map[string]float64) {
	layer["sim.hold_ns_d256"] = holdNs(256)
	layer["sim.hold_ns_d4096"] = holdNs(4096)
	layer["addr.lpm_ns_1k"] = lpmNs(1_000)
	layer["addr.lpm_ns_100k"] = lpmNs(100_000)

	lfib := mpls.NewLFIB()
	for i := 0; i < 1000; i++ {
		lfib.BindILM(packet.Label(16+i), mpls.NHLFE{Op: mpls.OpSwap, OutLabel: packet.Label(5000 + i), OutLink: topo.LinkID(i % 8)})
	}
	layer["mpls.ilm_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			e, _ := lfib.LookupILM(packet.Label(16 + i%1000))
			sink += uint64(e.OutLabel)
		}
	})

	var st packet.LabelStack
	layer["packet.push_pop_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			st.Push(packet.LabelStackEntry{Label: packet.Label(16 + i&1023), TTL: 64})
			sink += uint64(st.Pop().Label)
		}
	})

	// The weights a backbone gets when its config names none.
	qb, weights := netsim.DefaultQueueBytes, core.NewBackbone(core.Config{}).Cfg.WFQWeights
	layer["qos.enq_deq_ns_fifo_empty"] = schedNs(qos.NewFIFO(qb), 0)
	layer["qos.enq_deq_ns_hybrid_empty"] = schedNs(qos.NewHybrid(qb, weights), 0)
	layer["qos.enq_deq_ns_hybrid_backlog"] = schedNs(qos.NewHybrid(qb, weights), 48)
	layer["qos.enq_deq_ns_wfq_backlog"] = schedNs(qos.NewWFQ(qb, weights), 48)

	marked := []*packet.Packet{testPacket(packet.DSCPBestEffort, 200), testPacket(packet.DSCPAF41, 200), testPacket(packet.DSCPEF, 200)}
	marked[1].MPLS.Push(packet.LabelStackEntry{Label: 100, EXP: qos.EXPForClass(qos.ClassBusiness), TTL: 64})
	layer["qos.classify_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(qos.ClassOf(marked[i%3]))
		}
	})

	h := telemetry.NewHistogram(nil)
	layer["telemetry.observe_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(float64(i&63) * 0.5)
		}
	})
	layer["trafgen.emit_ns"] = emitNs()
}

// receiveStop is one router on a packet's path with the packet as it
// arrived there.
type receiveStop struct {
	r      *device.Router
	in     packet.Packet
	inLink topo.LinkID
}

// walk forwards one packet of f hop by hop through the built routers, the
// way core.TraceRoute does, and returns every stop.
func walk(b *core.Backbone, f *trafgen.Flow) (path []receiveStop, crossesCore bool) {
	p := f.Packet(200)
	at, inLink := f.At, topo.LinkID(-1)
	for hop := 0; hop < b.G.NumNodes(); hop++ {
		r := b.Net.Router(at)
		path = append(path, receiveStop{r, *p, inLink})
		crossesCore = crossesCore || r.Kind == device.P
		v := r.Receive(b.E.Now(), p, inLink)
		if v.Dropped() || v.Deliver {
			break
		}
		at, inLink = b.G.Link(v.OutLink).To, v.OutLink
	}
	return path, crossesCore
}

// receiveProbe times Router.Receive at each role (CE, ingress PE, P, egress
// PE) along the path of the first flow that crosses the core, on the
// scenario's own routers and tables. Receive rewrites the packet, so every
// call starts from a saved copy; the copy is part of what is timed (a
// struct assignment, a few ns).
func receiveProbe(s *scenario, layer map[string]float64) {
	var path []receiveStop
	for _, f := range s.flows {
		var ok bool
		if path, ok = walk(s.b, f); ok {
			break
		}
	}
	role := func(i int) string {
		switch st := path[i]; {
		case st.r.Kind == device.CE:
			return "ce"
		case st.r.Kind == device.P:
			return "p"
		case st.r.Kind == device.PE && i == 1:
			return "pe_ingress"
		case st.r.Kind == device.PE:
			return "pe_egress"
		}
		return ""
	}
	seen := map[string]bool{}
	for i, st := range path {
		name := role(i)
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		st := st
		var work packet.Packet
		layer["device.receive_ns_"+name] = nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				work = st.in
				v := st.r.Receive(0, &work, st.inLink)
				sink += uint64(v.OutLink)
			}
		})
	}
}

// chainNsPerPkt builds PE0 - P x nP - PE1 on 10 Gb/s links with one site at
// each end, runs flows CBR flows across it for dur, and returns host ns per
// delivered packet.
func chainNsPerPkt(nP, flows int, dur sim.Time) float64 {
	b := core.NewBackbone(core.Config{Seed: 1, Scheduler: core.SchedHybrid})
	b.AddPE("PE0")
	prev := "PE0"
	for i := 0; i < nP; i++ {
		name := fmt.Sprintf("P%d", i)
		b.AddP(name)
		b.Link(prev, name, 10e9, sim.Millisecond, 1)
		prev = name
	}
	b.AddPE("PE1")
	b.Link(prev, "PE1", 10e9, sim.Millisecond, 1)
	b.BuildProvider()
	b.DefineVPN("v")
	for i := 0; i < 2*flows; i++ {
		b.AddSite(core.SiteSpec{VPN: "v", Name: siteName(i), PE: peName(i % 2), Prefixes: []addr.Prefix{sitePrefix(i)}})
	}
	b.ConvergeVPNs()
	for i := 0; i < flows; i++ {
		f, err := b.FlowBetween(fmt.Sprintf("f%d", i), siteName(2*i), siteName(2*i+1), 5060)
		if err != nil {
			panic(err)
		}
		trafgen.CBR(b.Net, f, 200, sim.Millisecond, sim.Time(i)*137*sim.Microsecond, dur)
	}
	runtime.GC()
	t0 := time.Now()
	b.Net.RunUntil(dur + 50*sim.Millisecond)
	return float64(time.Since(t0).Nanoseconds()) / float64(b.Net.Delivered)
}

// hopProbe measures the marginal host cost of one more P hop through the
// whole stack (two events, one label swap, one enqueue/dequeue, netsim's own
// port and link work) as the slope between a short and a long chain, and
// from it netsim's own share.
func hopProbe(cfg runConfig, layer map[string]float64) {
	const short, long = 2, 10
	dur := sim.Time(cfg.scaled(500, 20)) * sim.Millisecond
	best := func(nP int) float64 {
		return fasterOf(func() float64 { return chainNsPerPkt(nP, 40, dur) })
	}
	hop := (best(long) - best(short)) / (long - short)
	layer["netsim.hop_ns"] = hop
	layer["netsim.self_ns_per_hop"] = hop - 2*layer["sim.hold_ns_d256"] - layer["device.receive_ns_p"] - layer["qos.enq_deq_ns_hybrid_empty"]
}

func probeBackbone200(cfg runConfig, layer map[string]float64) {
	spec := backbone200Spec(cfg, 0)
	s := buildRing(spec, cfg.seed, nil)
	receiveProbe(s.scenario, layer)
	hopProbe(cfg, layer)
	layer["topo.partition_ms"] = ms(timedSpan(nil, "", func() { topo.Partition(s.b.G, 8) }))
}

// probeMetro64 adds the telemetry on/off pair: the same congested scenario
// at a fifth of the horizon with telemetry disabled, against the same with
// it enabled, each side keeping the faster of two runs.
func probeMetro64(cfg runConfig, layer map[string]float64) {
	short := cfg
	short.scale = cfg.scale * 0.2
	spec := metro64Spec(short)
	s := buildRing(spec, cfg.seed, nil)
	receiveProbe(s.scenario, layer)
	hopProbe(cfg, layer)

	nsPerPkt := func(tel bool) func() float64 {
		return func() float64 {
			sp := spec
			sp.telemetry = tel
			sc := buildRing(sp, cfg.seed, nil)
			runtime.GC()
			d := sc.runTo(sp.horizon+sp.drain, nil, nil)
			return float64(d.Nanoseconds()) / float64(sc.b.Net.Delivered)
		}
	}
	layer["telemetry.overhead_ns_per_pkt"] = fasterOf(nsPerPkt(true)) - fasterOf(nsPerPkt(false))
}

// probePop147 costs the control-plane protocols alone on the grid: a fresh
// IGP and LDP convergence, single-link incremental SPF, and constrained
// shortest paths from scratch and incrementally.
func probePop147(cfg runConfig, layer map[string]float64) {
	b := core.NewBackbone(core.Config{Seed: cfg.seed})
	layPopTopology(b)
	g := b.G

	var igp *ospf.Domain
	layer["ospf.converge_ms"] = ms(timedSpan(nil, "", func() {
		igp = ospf.NewDomain(g)
		igp.Converge()
	}))
	layer["ldp.converge_ms"] = ms(timedSpan(nil, "", func() { ldp.New(g, igp).Converge() }))

	links := popCoreLinks()
	r := newRng(cfg.seed, "pop147-probe")
	const flaps = 40
	t0 := time.Now()
	for i := 0; i < flaps; i++ {
		// Down then up on the same link, so the graph ends as it began.
		l := links[r.intn(len(links))]
		a, _ := g.NodeByName(l.a)
		z, _ := g.NodeByName(l.z)
		g.SetLinkDown(a, z, true)
		igp.NotifyLinkChange(a, z)
		g.SetLinkDown(a, z, false)
		igp.NotifyLinkChange(a, z)
	}
	layer["ospf.ispf_us_per_flap"] = us(time.Since(t0)) / (2 * flaps)

	c := topo.Constraints{MinAvailableBw: 5e8}
	layer["topo.cspf_us"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			res := g.CSPF(topo.NodeID(i%g.NumNodes()), c)
			sink += uint64(len(res.Dist))
		}
	}) / 1e3
	inc := topo.NewIncrementalSPF(g, 0, c)
	layer["topo.icspf_us_per_change"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			lid := topo.LinkID(i % g.NumLinks())
			l := g.Link(lid)
			if l.ReservedBw > 0 {
				l.ReservedBw = 0
			} else {
				l.ReservedBw = 8e8
			}
			inc.ApplyLinkChange(lid)
		}
	}) / 1e3
}

// attribute prints count x probe cost per layer against the end-to-end ns
// per packet of the traced repetition, and records the remainder.
func attribute(w workload, layer map[string]float64, log *os.File) {
	hops := layer["netsim.hops_per_pkt"]
	// Every packet is received once by each CE and each PE on its path; the
	// remaining receives are P hops. Every receive but the last enqueues.
	hold := layer["sim.hold_ns_d256"]
	if layer["sim.pending_depth_p50"] > 1024 {
		hold = layer["sim.hold_ns_d4096"]
	}
	enq := layer["qos.enq_deq_ns_hybrid_empty"]
	if layer["qos.busy_enqueue_share"] > 0.5 {
		enq = layer["qos.enq_deq_ns_hybrid_backlog"]
	}
	sentPerDelivered := 1 / (1 - layer["netsim.drop_share"])
	rows := []struct {
		layer string
		count float64
		ns    float64
	}{
		{"sim (events x hold)", layer["sim.events_per_pkt"], hold},
		{"device ce", 2, layer["device.receive_ns_ce"]},
		{"device pe_ingress", 1, layer["device.receive_ns_pe_ingress"]},
		{"device p", hops - 4, layer["device.receive_ns_p"]},
		{"device pe_egress", 1, layer["device.receive_ns_pe_egress"]},
		{"qos (enqueue+dequeue)", hops - 1, enq},
		{"netsim (port+link)", hops - 1, layer["netsim.self_ns_per_hop"]},
		{"trafgen (emit)", sentPerDelivered, layer["trafgen.emit_ns"]},
		{"telemetry", 1, layer["telemetry.overhead_ns_per_pkt"]},
	}
	total := 0.0
	fmt.Fprintf(log, "attribution for %s, per delivered packet:\n", w.name)
	fmt.Fprintf(log, "  %-24s %8s %10s %10s\n", "layer", "count", "ns_each", "ns")
	for _, r := range rows {
		fmt.Fprintf(log, "  %-24s %8.2f %10.1f %10.1f\n", r.layer, r.count, r.ns, r.count*r.ns)
		total += r.count * r.ns
	}
	e2e := layer["layers.e2e_ns_per_pkt"]
	layer["layers.attributed_ns_per_pkt"] = total
	layer["layers.unattributed_ns_per_pkt"] = e2e - total
	fmt.Fprintf(log, "  %-24s %30.1f\n", "sum of layers", total)
	fmt.Fprintf(log, "  %-24s %30.1f\n", "end to end", e2e)
	fmt.Fprintf(log, "  %-24s %30.1f\n", "unattributed", e2e-total)
}
