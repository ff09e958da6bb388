package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/bgp"
	"mplsvpn/internal/core"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

// ---------------------------------------------------------------------------
// pop147_churn

// The provider-scale control plane: a 7x7 P grid with two PEs per P.
const (
	popSide = 7
	popPEs  = 2 * popSide * popSide
)

func popP(i, j int) string { return fmt.Sprintf("P%d-%d", i, j) }

// popSpec sizes the churn scenario.
type popSpec struct {
	sites, vpns, lsps, faults int
	snapEvery                 int // snapshot after every snapEvery-th fault
}

func popSpecFor(cfg runConfig) popSpec {
	return popSpec{
		sites: cfg.scaled(2000, 200), vpns: cfg.scaled(100, 10),
		lsps:   cfg.scaled(48, 8),
		faults: 2 * cfg.scaled(12, 2), snapEvery: cfg.scaled(6, 1),
	}
}

// Fault timing, in virtual time: each fault is detected after faultDetect
// and the network runs faultSettle past detection before the next one.
const (
	faultDetect = 5 * sim.Millisecond
	faultSettle = 20 * sim.Millisecond
	faultStart  = 10 * sim.Millisecond
)

// popScenario is one built, unrun instance plus its fault script.
type popScenario struct {
	*scenario
	spec popSpec
	// script[i] is the i-th fault: fail or restore one core link.
	script []popFault
	next   int // next fault to inject
}

type popFault struct {
	a, z    string
	restore bool
}

// popLink is one duplex core link of the grid.
type popLink struct {
	a, z   string
	metric int
}

// popCoreLinks lists the grid's duplex links in a fixed order, with metrics
// 1-4 (E20's deterministic variety).
func popCoreLinks() []popLink {
	var links []popLink
	for i := 0; i < popSide; i++ {
		for j := 0; j < popSide; j++ {
			if j+1 < popSide {
				links = append(links, popLink{popP(i, j), popP(i, j+1), 1 + (i*7+j*3)%4})
			}
			if i+1 < popSide {
				links = append(links, popLink{popP(i, j), popP(i+1, j), 1 + (i*5+j*11)%4})
			}
		}
	}
	return links
}

// layPopTopology adds the grid and its PEs to an empty backbone: 1 Gb/s
// links, two PEs per P.
func layPopTopology(b *core.Backbone) {
	for i := 0; i < popSide; i++ {
		for j := 0; j < popSide; j++ {
			b.AddP(popP(i, j))
		}
	}
	for _, l := range popCoreLinks() {
		b.Link(l.a, l.z, 1e9, sim.Millisecond, l.metric)
	}
	for k := 0; k < popPEs; k++ {
		b.AddPE(peName(k))
		p := k / 2
		b.Link(peName(k), popP(p/popSide, p%popSide), 1e9, sim.Millisecond, 1)
	}
}

// buildPop provisions the churn scenario from nothing to ready-to-run. The
// seed picks core.Config.Seed, site placement, the TE LSP endpoints and the
// core links the fault script flaps.
func buildPop(spec popSpec, seed uint64, tr *tracer) *popScenario {
	s := &popScenario{
		scenario: newScenario("pop147", seed, core.Config{Scheduler: core.SchedHybrid, ReflectorClusters: 7}),
		spec:     spec,
	}
	b := s.b
	layPopTopology(b)
	s.buildProvider(tr)
	// The customer sites go on every PE but the last, which hosts one site
	// of a single-site VPN instead. That keeps the highest-numbered BGP
	// speaker's Adj-RIB-In empty: bgp's loadRoute validates CLUSTER_LIST
	// counts as 8 bytes an entry where the varint codec writes one, so a
	// checkpoint whose bgp section ends in a reflected route is refused as
	// corrupt. The defect is in internal/bgp/snapshot.go, outside what this
	// benchmark may change; see README.md.
	b.DefineVPN("mgmt")
	b.AddSite(core.SiteSpec{VPN: "mgmt", Name: "noc", PE: peName(popPEs - 1),
		Prefixes: []addr.Prefix{addr.MustParsePrefix("192.168.0.0/24")}})
	s.provisionSites(spec.sites, spec.vpns, popPEs-1, tr)

	end := tr.begin("rsvp.SetupTELSP")
	t0 := time.Now()
	for k := 0; k < spec.lsps; k++ {
		in := s.rng.intn(popPEs)
		eg := (in + 1 + s.rng.intn(popPEs-1)) % popPEs
		if _, err := b.SetupTELSP(fmt.Sprintf("te%d", k), peName(in), peName(eg), 10e6, -1, rsvp.SetupOptions{}); err != nil {
			panic(err)
		}
	}
	s.layer["rsvp.setup_us_per_lsp"] = us(time.Since(t0)) / float64(spec.lsps)
	s.layer["rsvp.path_msgs"] = float64(b.RSVP.PathMessages)
	end("lsps", spec.lsps)

	// The data plane stays nearly idle: one 100 pkt/s flow per ten sites
	// keeps packets in flight across every fault and checkpoint.
	end = tr.begin("trafgen.attach")
	horizon := faultStart + sim.Time(spec.faults)*(faultDetect+faultSettle)
	phase := s.rng.perm(spec.sites)
	for i := 0; i < spec.sites; i += 10 {
		f := s.flow(fmt.Sprintf("f%d", i), i, s.peerOf(i), 5060, packet.DSCPBestEffort)
		b.RegisterSource(trafgen.CBR(b.Net, f, 200, 10*sim.Millisecond,
			sim.Time(phase[i])*137*sim.Microsecond%(10*sim.Millisecond), horizon))
	}
	b.E.MarkSetup()
	end("flows", len(s.flows))

	// Fail and restore interleave so that two links are down at once for
	// half of the script: F0 F1 R0 F2 R1 ... R(n-1).
	links := popCoreLinks()
	pick := s.rng.perm(len(links))
	n := spec.faults / 2
	for k := 0; k < n; k++ {
		l := links[pick[k]]
		s.script = append(s.script, popFault{a: l.a, z: l.z})
		if k > 0 {
			p := links[pick[k-1]]
			s.script = append(s.script, popFault{a: p.a, z: p.z, restore: true})
		}
	}
	last := links[pick[n-1]]
	s.script = append(s.script, popFault{a: last.a, z: last.z, restore: true})
	return s
}

// inject applies the next scripted fault and runs the network until it has
// reconverged, returning the host time from the fault call through that run.
func (s *popScenario) inject(tr *tracer) (time.Duration, error) {
	f := s.script[s.next]
	until := faultStart + sim.Time(s.next+1)*(faultDetect+faultSettle)
	s.next++
	end := tr.begin("core.FailLink-reconverged")
	t0 := time.Now()
	var err error
	if f.restore {
		err = s.b.RestoreLink(f.a, f.z, faultDetect)
	} else {
		err = s.b.FailLink(f.a, f.z, faultDetect)
	}
	s.b.Net.RunUntil(until)
	d := time.Since(t0)
	end("path_msgs", s.b.RSVP.PathMessages, "ispf_runs", s.b.IGP.ISPFRuns)
	return d, err
}

// finish runs past the last fault so every in-flight packet lands.
func (s *popScenario) finish() {
	s.b.Net.RunUntil(faultStart + sim.Time(len(s.script))*(faultDetect+faultSettle) + 100*sim.Millisecond)
}

// repPop147 is one repetition: build, play the fault script with a snapshot
// after every snapEvery-th fault, then restore the last two snapshots onto
// rebuilt scenarios and finish each, which must reproduce the uninterrupted
// fingerprint. The measured stage is the fault script: work is faults
// reconverged, stage time the sum of their host times.
func repPop147(cfg runConfig) *repOut {
	spec := popSpecFor(cfg)
	out := &repOut{}
	tr := cfg.tr

	var s *popScenario
	out.setupS = append(out.setupS, timedSpan(tr, "setup", func() { s = buildPop(spec, cfg.seed, tr) }).Seconds())
	b := s.b
	out.layer = s.layer
	l := out.layer
	fullBefore := b.IGP.FullSPFRuns

	type checkpoint struct {
		data  []byte
		took  time.Duration
		after int // faults injected before it was taken
	}
	var ckpts []checkpoint
	var reconvMs, pathMsgs []float64
	forceGC(tr)
	for s.next < len(s.script) {
		d, err := s.inject(tr)
		out.op(err == nil, "fault %d: %v", s.next-1, err)
		reconvMs = append(reconvMs, ms(d))
		// Not a running total: reconverging replaces b.RSVP with a fresh
		// instance and re-signals every TE intent on it, so after a fault the
		// counter holds the PATH messages of that re-signalling alone.
		pathMsgs = append(pathMsgs, float64(b.RSVP.PathMessages))
		if s.next%spec.snapEvery == 0 {
			var data []byte
			var serr error
			d := timedCheckpoint(tr, "core.Snapshot", func() { data, serr = b.Snapshot(s.scenarioID()) })
			out.op(serr == nil, "snapshot after fault %d: %v", s.next, serr)
			if serr == nil {
				out.snapMs = append(out.snapMs, ms(d))
				ckpts = append(ckpts, checkpoint{data, d, s.next})
			}
		}
	}
	s.finish()
	// The script as a whole is the rate sample: faults differ in cost (how
	// much of the tree a link carries), scripts do not.
	out.rate = float64(len(reconvMs)) / (sum(reconvMs) / 1e3)
	endCheck := tr.begin("harness.check")
	out.fingerprint = s.fingerprint()
	out.liveHeapMB = heapInuseMB()
	s.checkInvariants(out)
	endCheck()
	l["ospf.full_spf_runs"] = float64(b.IGP.FullSPFRuns - fullBefore)
	l["ospf.ispf_runs"] = float64(b.IGP.ISPFRuns)
	l["rsvp.resignals_per_fault"] = sum(pathMsgs) / float64(len(pathMsgs))
	l["churn.reconverge_ms_p50"] = median(reconvMs)
	l["churn.reconverge_ms_p90"] = quantile(reconvMs, 0.9)
	l["core.state_digest_ms"] = ms(timedSpan(tr, "core.StateDigest", func() { _ = b.StateDigest() }))

	// Restore the last two checkpoints, each onto a scenario rebuilt from
	// nothing, and play the rest of the script.
	if len(ckpts) > 2 {
		ckpts = ckpts[len(ckpts)-2:]
	}
	for _, ck := range ckpts {
		var s2 *popScenario
		out.setupS = append(out.setupS, timedSpan(tr, "setup", func() { s2 = buildPop(spec, cfg.seed, tr) }).Seconds())
		var rerr error
		d := timedCheckpoint(tr, "core.Restore", func() { rerr = s2.b.Restore(ck.data, s2.scenarioID()) })
		out.op(rerr == nil, "restore of checkpoint after fault %d: %v", ck.after, rerr)
		if rerr != nil {
			continue
		}
		out.restoreMs = append(out.restoreMs, ms(d))
		if tr != nil {
			snapshotLayers(ck.data, ck.took, tr, l)
		}
		endResume := tr.begin("resume")
		s2.next = ck.after
		for s2.next < len(s2.script) {
			_, err := s2.inject(nil)
			out.op(err == nil, "fault %d after restore: %v", s2.next-1, err)
		}
		s2.finish()
		fp2 := s2.fingerprint()
		endResume()
		out.check(fp2 == out.fingerprint, "run restored after fault %d is %s, uninterrupted run is %s",
			ck.after, digest(fp2), digest(out.fingerprint))
	}
	if len(ckpts) > 0 {
		out.snapshotB = float64(len(ckpts[len(ckpts)-1].data))
	}
	return out
}

// ---------------------------------------------------------------------------
// vpnv4_100k

// vpnv4Spec sizes the bgp-only workload: clients x routesPer VPN-IPv4 /32
// routes through clusters of clusterSize clients with two reflectors each,
// RT-constrained.
type vpnv4Spec struct {
	clients, vpns, routesPer, clusterSize int
}

func vpnv4SpecFor(cfg runConfig) vpnv4Spec {
	return vpnv4Spec{clients: cfg.scaled(1000, 100), vpns: cfg.scaled(100, 10), routesPer: 100, clusterSize: 100}
}

// vpnv4Setups is how many times a repetition builds the restore target; the
// last build is the one restored onto.
const vpnv4Setups = 4

func vpnRT(vpn int) addr.RouteTarget { return addr.RouteTarget{Admin: 65000, Assigned: uint32(vpn)} }

// vpnv4Mesh is one built, unconverged mesh.
type vpnv4Mesh struct {
	m      *bgp.Mesh
	spec   vpnv4Spec
	vpnOf  []int         // client -> VPN
	ids    []topo.NodeID // client -> speaker ID
	routes int
}

// buildVPNv4 constructs the mesh and originates every route. Ten
// consecutive clients share a home VPN; every tenth is instead a remote
// site of a seed-chosen VPN (E20's hub-and-branch shape, which forces real
// cross-cluster reflection).
//
// The last client is the only member of a VPN of its own and takes the
// highest speaker ID, above the reflectors, so the serialized mesh does not
// end in a reflected route (see buildPop for the defect this avoids).
func buildVPNv4(spec vpnv4Spec, seed uint64) *vpnv4Mesh {
	r := newRng(seed, "vpnv4")
	nClusters := (spec.clients + spec.clusterSize - 1) / spec.clusterSize
	v := &vpnv4Mesh{m: bgp.NewMesh(), spec: spec, vpnOf: make([]int, spec.clients), ids: make([]topo.NodeID, spec.clients)}
	m := v.m
	for p := 0; p < spec.clients; p++ {
		vpn := (p / 10) % spec.vpns
		if p%10 == 9 {
			vpn = r.intn(spec.vpns)
		}
		v.ids[p] = topo.NodeID(p)
		if p == spec.clients-1 {
			vpn = spec.vpns
			v.ids[p] = topo.NodeID(spec.clients + 2*nClusters)
		}
		v.vpnOf[p] = vpn
		rt := vpnRT(vpn)
		sp := m.AddSpeaker(v.ids[p], addr.IPv4(0xac000000+uint32(p)))
		sp.Filter = func(r *bgp.VPNRoute) bool { return r.HasRT(rt) }
		for i := 0; i < spec.routesPer; i++ {
			sp.Originate(&bgp.VPNRoute{
				Prefix: addr.VPNPrefix{
					RD:     addr.RouteDistinguisher{Admin: 65000, Assigned: rt.Assigned},
					Prefix: addr.NewPrefix(addr.IPv4(uint32(p)<<8|uint32(i)), 32),
				},
				NextHop:  addr.IPv4(0xac000000 + uint32(p)),
				Label:    packet.Label(16 + p),
				RTs:      []addr.RouteTarget{rt},
				OriginPE: v.ids[p],
			})
			v.routes++
		}
	}
	clusters := make([]bgp.Cluster, 0, nClusters)
	for c := 0; c < nClusters; c++ {
		cl := bgp.Cluster{ID: uint32(c + 1)}
		for rr := 0; rr < 2; rr++ {
			n := topo.NodeID(spec.clients + 2*c + rr)
			m.AddSpeaker(n, addr.IPv4(0xad000000+uint32(2*c+rr)))
			cl.RRs = append(cl.RRs, n)
		}
		for p := c * spec.clusterSize; p < (c+1)*spec.clusterSize && p < spec.clients; p++ {
			cl.Clients = append(cl.Clients, v.ids[p])
		}
		clusters = append(clusters, cl)
	}
	m.UseClusters(clusters)
	for p := 0; p < spec.clients; p++ {
		m.SetRTInterest(v.ids[p], []addr.RouteTarget{vpnRT(v.vpnOf[p])})
	}
	return v
}

// fingerprint hashes every client's best paths in order.
func (v *vpnv4Mesh) fingerprint() string {
	h := fnv.New64a()
	var rec [40]byte
	for p := 0; p < v.spec.clients; p++ {
		sp, _ := v.m.Speaker(v.ids[p])
		for _, r := range sp.BestRoutes() {
			binary.LittleEndian.PutUint64(rec[0:], uint64(p))
			binary.LittleEndian.PutUint64(rec[8:], uint64(r.Prefix.RD.Admin)<<32|uint64(r.Prefix.RD.Assigned))
			binary.LittleEndian.PutUint64(rec[16:], uint64(r.Prefix.Prefix.Addr)<<8|uint64(r.Prefix.Prefix.Len))
			binary.LittleEndian.PutUint64(rec[24:], uint64(r.NextHop)<<32|uint64(r.Label))
			binary.LittleEndian.PutUint64(rec[32:], uint64(r.OriginPE))
			h.Write(rec[:])
		}
	}
	return fmt.Sprintf("bestpaths=%016x updates=%d loop_prevented=%d sessions=%d",
		h.Sum64(), v.m.UpdatesSent, v.m.LoopPrevented, v.m.SessionCount())
}

// repVPNv4 is one repetition: build (mesh construction + Originate), then
// the measured stage Mesh.Converge; the checkpoint is the mesh's own
// SaveState onto a rebuilt mesh's LoadState.
func repVPNv4(cfg runConfig) *repOut {
	spec := vpnv4SpecFor(cfg)
	out := &repOut{layer: map[string]float64{}}
	tr := cfg.tr

	base := heapInuseMB()
	var v *vpnv4Mesh
	out.setupS = append(out.setupS, timedSpan(tr, "setup", func() { v = buildVPNv4(spec, cfg.seed) }).Seconds())
	d := timedSpan(tr, "bgp.Converge", v.m.Converge)
	out.rate = float64(v.routes) / d.Seconds()
	endCheck := tr.begin("harness.check")
	out.liveHeapMB = heapInuseMB()
	out.fingerprint = v.fingerprint()

	// Every client must hold exactly the routes its import filter admits:
	// routesPer from each member of its VPN, itself included.
	members := make([]int, spec.vpns+1)
	for _, vpn := range v.vpnOf {
		members[vpn]++
	}
	bad := 0
	for p := 0; p < spec.clients; p++ {
		sp, _ := v.m.Speaker(v.ids[p])
		if len(sp.BestRoutes()) != members[v.vpnOf[p]]*spec.routesPer {
			bad++
		}
	}
	out.check(bad == 0, "%d clients hold a best-route count different from their analytic import count", bad)
	endCheck()

	l := out.layer
	l["bgp.updates_per_route"] = float64(v.m.UpdatesSent) / float64(v.routes)
	l["bgp.converge_ns_per_update"] = d.Seconds() * 1e9 / float64(v.m.UpdatesSent)
	l["bgp.loop_prevented"] = float64(v.m.LoopPrevented)
	l["bgp.sessions"] = float64(v.m.SessionCount())
	l["bgp.heap_bytes_per_route"] = (out.liveHeapMB - base) * (1 << 20) / float64(v.routes)

	var w snapshot.Writer
	saveD := timedCheckpoint(tr, "bgp.SaveState", func() { v.m.SaveState(&w) })
	// Two converged meshes at once would double the peak RSS reported: let
	// the first go before the second is built.
	v = nil
	// Building is cheap next to converging, so it is timed a few more times.
	var v2 *vpnv4Mesh
	for i := 0; i < vpnv4Setups; i++ {
		out.setupS = append(out.setupS, timedSpan(tr, "setup", func() { v2 = buildVPNv4(spec, cfg.seed) }).Seconds())
	}
	var err error
	loadD := timedCheckpoint(tr, "bgp.LoadState", func() { err = v2.m.LoadState(snapshot.NewReader(w.Data())) })
	out.op(err == nil, "LoadState: %v", err)
	if err == nil {
		endCheck = tr.begin("harness.check")
		fp2 := v2.fingerprint()
		endCheck()
		out.check(fp2 == out.fingerprint, "restored mesh %s differs from the converged mesh %s", fp2, out.fingerprint)
	}
	out.snapMs = []float64{ms(saveD)}
	out.restoreMs = []float64{ms(loadD)}
	out.snapshotB = float64(w.Len())
	l["snapshot.section_bytes.bgp"] = out.snapshotB
	return out
}
