// Package core is the paper's contribution assembled end to end: an MPLS
// VPN backbone with a DiffServ/TE QoS plane. It orchestrates the
// substrates — OSPF-style IGP, LDP, RSVP-TE, MP-BGP, VRFs, the DiffServ
// edge, and the packet-level simulator — behind one provisioning API:
//
//	b := core.NewBackbone(core.Config{...})
//	pe1 := b.AddPE("PE1"); p1 := b.AddP("P1"); ...
//	b.Link("PE1", "P1", 10e6, sim.Millisecond, 1)
//	b.BuildProvider()                      // IGP + LDP converge
//	b.DefineVPN("acme")
//	b.AddSite(core.SiteSpec{VPN: "acme", Name: "hq", PE: "PE1", ...})
//	b.ConvergeVPNs()                       // BGP + VRF import
//	b.Run(...)                             // inject traffic, measure
//
// The §4 procedures map directly: membership discovery is the vpn.Registry
// wired into provisioning, reachability exchange is MP-BGP with label
// piggybacking, and data carriage is the LDP/RSVP LSP mesh.
package core

import (
	"mplsvpn/internal/addr"
	"mplsvpn/internal/bgp"
	"mplsvpn/internal/device"
	"mplsvpn/internal/ldp"
	"mplsvpn/internal/mpls"
	"mplsvpn/internal/netsim"
	"mplsvpn/internal/ospf"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
	"mplsvpn/internal/vpn"
)

// SchedulerKind selects the per-port QoS discipline (the E2 ablation axis).
type SchedulerKind int

// Scheduler choices.
const (
	SchedFIFO SchedulerKind = iota
	SchedPriority
	SchedWFQ
	SchedDRR
	SchedHybrid // strict priority for control/voice + WFQ for the rest
)

func (k SchedulerKind) String() string {
	switch k {
	case SchedFIFO:
		return "fifo"
	case SchedPriority:
		return "priority"
	case SchedWFQ:
		return "wfq"
	case SchedDRR:
		return "drr"
	default:
		return "hybrid"
	}
}

// Config sets the backbone-wide policy knobs.
type Config struct {
	Seed uint64

	// PlainIP disables MPLS/VPN machinery: the backbone routes customer
	// prefixes natively. This is the §2.2 "IP applications today have no
	// direct mechanism to specify QoS" baseline and the substrate for the
	// IPSec overlay of E3.
	PlainIP bool

	// Scheduler is the discipline installed on every backbone port.
	Scheduler SchedulerKind
	// QueueBytes bounds each port's buffering (0 = netsim default).
	QueueBytes int
	// WFQWeights applies to WFQ/Hybrid schedulers; zero value gets a
	// sensible default (business 4 : assured 2 : best effort 1).
	WFQWeights [qos.NumClasses]float64
	// WRED enables random early detection on best-effort queues.
	WRED bool
	// EFLimitFraction, when positive, caps the hybrid scheduler's voice
	// priority queue at this fraction of each link's rate, so even an
	// unpoliced EF flood cannot starve the lower tiers.
	EFLimitFraction float64

	// DisableEXPMapping turns off the §5 DSCP->EXP edge mapping at PEs
	// (an E2/E7 ablation). The mapping is on by default in MPLS mode.
	DisableEXPMapping bool

	// LDPIndependent switches label distribution from ordered to
	// independent control (DESIGN.md §4.2 ablation).
	LDPIndependent bool
	// DisablePHP turns off penultimate-hop popping: the egress pops its
	// own transport label (ultimate-hop popping; §4.4 ablation).
	DisablePHP bool

	// FRR pre-signals facility-backup bypass tunnels around every core
	// link (RFC 4090): on failure the point of local repair detours
	// labelled traffic within LocalRepairDelay, long before the IGP-wide
	// reconvergence completes.
	FRR bool

	// DSTEPremiumFraction, when positive, enables DiffServ-aware TE: TE
	// LSPs for voice/control classes draw from a premium pool capped at
	// this fraction of each link (RFC 4124 MAM), so premium reservations
	// can never consume the whole backbone.
	DSTEPremiumFraction float64

	// RouteReflector, when non-empty, names the P/PE node to use as an
	// iBGP route reflector instead of a full mesh.
	RouteReflector string

	// ReflectorClusters, when positive, replaces the full iBGP mesh with
	// clustered route reflection (RFC 4456): PEs are bucketed into this
	// many topology-aware clusters and the lowest-numbered
	// ReflectorRedundancy PEs of each cluster serve as its reflectors,
	// with the remaining PEs as their clients. Session count drops from
	// O(N²) to O(N·redundancy) plus the reflector mesh. Ignored when
	// RouteReflector is set (the single-reflector legacy knob wins).
	ReflectorClusters int
	// ReflectorRedundancy is the number of reflectors per cluster
	// (default 2, so one reflector failure never partitions distribution).
	ReflectorRedundancy int

	// BGPAdmin is the RD/RT administrator number (default 65000).
	BGPAdmin uint16

	// InterASOption is this provider's default RFC 4364 inter-AS
	// interconnect style (option A/B/C) for peerings anchored at one of its
	// ASBRs. A PeeringSpec can override it per peering; OptionDefault here
	// resolves to option A.
	InterASOption InterASOption
}

// vpnConfig is the per-VPN control-plane identity.
type vpnConfig struct {
	Name    string
	RD      addr.RouteDistinguisher
	Imports []addr.RouteTarget
	Exports []addr.RouteTarget
	// SLAClass < 0 means "honour the customer's DSCP" (the default);
	// otherwise every packet of the VPN is re-marked to this class.
	SLAClass qos.Class
}

// siteRecord tracks a provisioned site end to end.
type siteRecord struct {
	Spec   SiteSpec
	CE     topo.NodeID
	PE     topo.NodeID
	ceToPE topo.LinkID
	peToCE topo.LinkID
	labels map[addr.Prefix]packet.Label // egress PE's VPN labels

	// Dual-homing state (Spec.BackupPE set).
	backupPE     topo.NodeID
	backupCEToPE topo.LinkID
	backupPEToCE topo.LinkID
	backupLabels map[addr.Prefix]packet.Label // backup PE's VPN labels

	// hosts are the workstation nodes behind the CE (Spec.Hosts > 0).
	hosts []topo.NodeID
}

// Backbone is the provisioned provider network.
type Backbone struct {
	Cfg Config

	E        *sim.Engine
	G        *topo.Graph
	Net      *netsim.Network
	IGP      *ospf.Domain
	LDP      *ldp.Protocol
	RSVP     *rsvp.Protocol
	BGP      *bgp.Mesh
	Registry *vpn.Registry

	routers map[topo.NodeID]*device.Router
	allocs  map[topo.NodeID]*mpls.Allocator

	providerNodes []topo.NodeID
	peNodes       []topo.NodeID
	vpns          map[string]*vpnConfig
	sites         map[string]*siteRecord // by site name
	siteByCE      map[topo.NodeID]*siteRecord
	// retired keeps the physical skeleton (CE node, access links, hosts)
	// of removed sites: the graph cannot delete nodes, and fibre does not
	// evaporate when a service is deprovisioned. Re-adding a site with a
	// compatible spec revives its skeleton with the same node and link
	// IDs, which is what makes a rolled-back-then-reapplied provisioning
	// transaction converge to a byte-identical StateDigest.
	retired  map[string]*siteRecord
	nextRD   uint32
	built    bool
	bypasses map[topo.LinkID]*rsvp.LSP

	// Fault-state tracking (the chaos plane): which links are
	// administratively failed, which provider routers are crashed, and which
	// site attachments are cut — so repeated or contradictory fault calls
	// are rejected instead of silently re-applied.
	failedLinks map[linkPair]bool
	nodeDown    map[topo.NodeID]bool
	cutSites    map[string]bool

	// Control-plane message loss model (SetControlPlaneLoss): a lost
	// failure notification delays reconvergence by ctrlExtra.
	ctrlLoss  float64
	ctrlExtra sim.Time
	ctrlRng   *sim.Rand

	// res is the TE resilience plane (nil until EnableResilience).
	res *resilience

	// domain is this backbone's index within a multi-AS simulation, folded
	// into the high bits of every control timer's encoded kind so a
	// shared-engine snapshot can re-arm each one on the right AS (0
	// standalone).
	domain uint16
	// onReconverged hooks run at the end of every reconvergeProvider pass.
	// The inter-AS layer uses them to re-derive boundary label state: the
	// full branch drops it with the tables, and on either branch the
	// transport labels it captured may have moved with the next hops.
	onReconverged []func()

	// surv is the control-plane survivability layer (nil until
	// EnableSurvivability); ctrlDown tracks routers whose control plane is
	// down while graceful restart preserves their forwarding state.
	surv     *survivability
	ctrlDown map[topo.NodeID]bool

	// IsolationViolations counts packets delivered into a different VPN
	// than they were injected into: must stay zero (E6).
	IsolationViolations int
	// isoAcc holds per-shard isolation-violation cells when the delivery
	// fast path runs inside shard segments; merged into the total at each
	// barrier (the count is commutative, so shard-local accumulation is
	// digest-invisible).
	isoAcc *telemetry.ShardAccumulator
	// ownsDelivery is true when this backbone installed Net.OnDeliver
	// itself (false for the shared-network multi-AS case, where the
	// InterAS dispatcher owns delivery and per-backbone shard-local
	// accounting would misattribute cross-AS packets).
	ownsDelivery bool

	// deliverHooks are caller hooks run on every delivery, in order.
	deliverHooks []func(topo.NodeID, *packet.Packet)
	// flows dispatches delivered packets to their measuring flow.
	flows map[packet.FlowKey]*trafgen.Flow
	// teRequests records TE intents for re-signalling after failures;
	// teReqSeq issues their stable ids.
	teRequests []*teRequest
	teReqSeq   int
	// pendingLinks queues single-link flaps for the IGP's incremental SPF
	// at the next reconvergence; pendingFull marks a wider event (node
	// crash/restart) that forces the full rebuild instead. Both serialize
	// with the core section so a checkpoint inside the detection window
	// resumes with the right reconvergence mode.
	pendingLinks []linkPair
	pendingFull  bool
	// teISPF caches an incrementally maintained unconstrained SPT per TE
	// ingress over RSVP's node scope. An intent's target path is read from it on every
	// reconvergence (resignalTE), as is RSVP's plain-path preemption
	// fallback. Derived state: dropped on node crashes and restore, never
	// serialized; customer links are outside the scope, so provisioning a
	// site does not disturb it.
	teISPF map[topo.NodeID]*topo.IncrementalSPF
	// TE counts what resignalTE did over this process's lifetime, and
	// TELast what it did on the latest reconvergence.
	TE, TELast TEResignalStats
	// aimd dispatches delivery/drop feedback to congestion-controlled sources.
	aimd map[packet.FlowKey]*trafgen.AIMD
	// sources are the checkpointable traffic generators in creation order;
	// srcIndex identifies their pending self-repost events in the heaps.
	sources  []trafgen.Source
	srcIndex map[sim.Action]int
	// checkpointLen is the length of the last checkpoint written or restored:
	// the next one's buffer is sized from it. The buffer itself is the
	// caller's; nothing of a checkpoint is kept here.
	checkpointLen int

	// siteByPrefix resolves a customer address to its provisioned site
	// (telemetry flow attribution).
	siteByPrefix *addr.Table[*siteRecord]

	// Telemetry plane (nil until EnableTelemetry).
	tel             *telemetry.Telemetry
	vpnTel          map[string]*vpnTel
	telDropReason   [packet.NumDropReasons]*telemetry.Counter
	telHotThreshold float64
	telPrevTx       []int64   // per-link tx bytes at the last interval roll
	telLastUtil     []float64 // per-link utilization over the last interval
}

// NewBackbone creates an empty backbone with the given policy, owning its
// simulation engine, graph, and network.
func NewBackbone(cfg Config) *Backbone {
	e := sim.NewEngine(cfg.Seed)
	g := topo.New()
	net := netsim.New(e, g)
	b := newBackboneOn(cfg, e, g, net)
	net.OnDeliver = b.onDeliver
	b.ownsDelivery = true
	return b
}

// newBackboneOn creates a backbone over shared simulation infrastructure
// (the multi-AS case); the caller owns delivery dispatch.
func newBackboneOn(cfg Config, e *sim.Engine, g *topo.Graph, net *netsim.Network) *Backbone {
	if cfg.BGPAdmin == 0 {
		cfg.BGPAdmin = 65000
	}
	var zero [qos.NumClasses]float64
	if cfg.WFQWeights == zero {
		// Voice/control weights only matter for the pure-WFQ scheduler;
		// the hybrid serves those classes from its strict-priority tier.
		cfg.WFQWeights[qos.ClassNetworkControl] = 16
		cfg.WFQWeights[qos.ClassVoice] = 16
		cfg.WFQWeights[qos.ClassBusiness] = 4
		cfg.WFQWeights[qos.ClassAssured] = 2
		cfg.WFQWeights[qos.ClassBestEffort] = 1
		cfg.WFQWeights[qos.ClassScavenger] = 0.5
	}
	if cfg.QueueBytes == 0 {
		cfg.QueueBytes = netsim.DefaultQueueBytes
	}
	return &Backbone{
		Cfg:          cfg,
		E:            e,
		G:            g,
		Net:          net,
		Registry:     vpn.NewRegistry(),
		BGP:          bgp.NewMesh(),
		routers:      make(map[topo.NodeID]*device.Router),
		allocs:       make(map[topo.NodeID]*mpls.Allocator),
		vpns:         make(map[string]*vpnConfig),
		sites:        make(map[string]*siteRecord),
		siteByCE:     make(map[topo.NodeID]*siteRecord),
		retired:      make(map[string]*siteRecord),
		siteByPrefix: addr.NewTable[*siteRecord](),
		nextRD:       1,
		failedLinks:  make(map[linkPair]bool),
		nodeDown:     make(map[topo.NodeID]bool),
		ctrlDown:     make(map[topo.NodeID]bool),
		cutSites:     make(map[string]bool),
	}
}

// OnDeliver registers a caller hook invoked for every delivered packet
// (after the backbone's own isolation and flow accounting). Hooks are
// additive: registering one never displaces another.
func (b *Backbone) OnDeliver(fn func(topo.NodeID, *packet.Packet)) {
	b.deliverHooks = append(b.deliverHooks, fn)
	// Caller hooks observe the global time-sorted stream; deliveries must
	// come back to the coordinator.
	b.disableLocalDeliver()
}

// installLocalDeliver moves per-packet delivery accounting into the
// destination shard's segment when that is safe: the backbone owns
// delivery dispatch, and no global observer (telemetry, AIMD feedback,
// caller hooks, request/response) needs the barrier's deterministic
// time-sorted stream. Isolation checks and flow stats qualify — the
// isolation count goes through a per-shard accumulator cell, and a flow's
// deliveries all land on the one shard owning its destination, so each
// FlowStats keeps a single writer.
func (b *Backbone) installLocalDeliver() {
	if b.ownsDelivery && b.E.Sharded() && b.tel == nil && b.aimd == nil && len(b.deliverHooks) == 0 {
		b.Net.OnDeliverLocal = b.onDeliverLocal
	}
}

// disableLocalDeliver routes deliveries back through the deferred barrier
// notes. Called whenever a global observer appears.
func (b *Backbone) disableLocalDeliver() {
	b.Net.OnDeliverLocal = nil
}

// onDeliverLocal is the shard-segment twin of onDeliver: identical
// accounting, but IsolationViolations accumulates in the shard's cell and
// the flow lookup uses the shard-local clock. The maps it reads (siteByCE,
// vpns, flows) only mutate on the global band, which never overlaps a
// segment.
func (b *Backbone) onDeliverLocal(shard int, now sim.Time, at topo.NodeID, p *packet.Packet) {
	if p.OriginVPN != "" {
		if rec, ok := b.siteByCE[at]; ok && !b.legitimateDelivery(p.OriginVPN, rec.Spec.VPN) {
			b.isoAcc.Add(shard, 0, 1)
		}
	}
	if fl, ok := b.flows[p.FlowKey()]; ok {
		fl.Stats.RecordDelivery(p.SentAt, now, p.Payload)
	}
}

// onDeliver enforces the E6 invariant: a packet may only terminate in the
// VPN it entered, or in a VPN that deliberately exported routes into it
// (an extranet). The check uses simulator metadata only — the forwarding
// path never sees OriginVPN.
func (b *Backbone) onDeliver(at topo.NodeID, p *packet.Packet) {
	if p.OriginVPN != "" {
		if rec, ok := b.siteByCE[at]; ok && !b.legitimateDelivery(p.OriginVPN, rec.Spec.VPN) {
			b.IsolationViolations++
		}
	}
	if fl, ok := b.flows[p.FlowKey()]; ok {
		fl.Stats.RecordDelivery(p.SentAt, b.E.Now(), p.Payload)
	}
	if src, ok := b.aimd[p.FlowKey()]; ok {
		src.Ack()
	}
	if b.tel != nil {
		b.telDeliver(at, p)
	}
	for _, fn := range b.deliverHooks {
		fn(at, p)
	}
}

// legitimateDelivery reports whether a packet injected in VPN origin may
// terminate at a site of VPN dest: same VPN, or dest exported a route
// target that origin imports (the extranet contract that put dest's routes
// into origin's VRF in the first place).
func (b *Backbone) legitimateDelivery(origin, dest string) bool {
	if origin == dest {
		return true
	}
	o, ok1 := b.vpns[origin]
	d, ok2 := b.vpns[dest]
	if !ok1 || !ok2 {
		return false
	}
	for _, ex := range d.Exports {
		for _, im := range o.Imports {
			if ex == im {
				return true
			}
		}
	}
	return false
}

// addProviderRouter creates a node + router of the given kind.
func (b *Backbone) addProviderRouter(name string, kind device.Kind) topo.NodeID {
	if b.built {
		panic("core: provider topology is frozen after BuildProvider")
	}
	id := b.G.AddNode(name)
	r := device.New(id, name, kind, ospf.Loopback(id))
	r.MapDSCPToEXP = !b.Cfg.PlainIP && !b.Cfg.DisableEXPMapping
	b.routers[id] = r
	b.Net.AddRouter(r)
	b.allocs[id] = mpls.NewAllocator()
	b.providerNodes = append(b.providerNodes, id)
	if kind == device.PE {
		b.peNodes = append(b.peNodes, id)
	}
	return id
}

// AddPE adds a provider edge router.
func (b *Backbone) AddPE(name string) topo.NodeID {
	return b.addProviderRouter(name, device.PE)
}

// AddP adds a core (label-switching only) router.
func (b *Backbone) AddP(name string) topo.NodeID {
	return b.addProviderRouter(name, device.P)
}

// Link connects two provider routers with a duplex link.
func (b *Backbone) Link(a, z string, bandwidth float64, delay sim.Time, metric int) (topo.LinkID, topo.LinkID) {
	na := b.mustNode(a)
	nz := b.mustNode(z)
	return b.G.AddDuplexLink(na, nz, bandwidth, delay, metric)
}

func (b *Backbone) mustNode(name string) topo.NodeID {
	id, ok := b.G.NodeByName(name)
	if !ok {
		panic(provErr(ProvUnknownNode, "node:"+name, "unknown node %q", name))
	}
	return id
}

// Router returns the device at the named node.
func (b *Backbone) Router(name string) *device.Router {
	return b.routers[b.mustNode(name)]
}

// BuildProvider freezes the provider topology and converges the interior
// control plane: IGP everywhere, LDP LSPs between all provider loopbacks
// (unless PlainIP), RSVP-TE ready, BGP speakers at PEs, and QoS schedulers
// on every port.
func (b *Backbone) BuildProvider() {
	if b.built {
		panic("core: BuildProvider called twice")
	}
	b.built = true

	b.IGP = ospf.NewDomainOver(b.G, b.providerNodes)
	b.IGP.Converge()

	if !b.Cfg.PlainIP {
		b.LDP = ldp.NewOver(b.G, b.IGP, b.providerNodes)
		if b.Cfg.LDPIndependent {
			b.LDP.Mode = ldp.Independent
		}
		b.LDP.DisablePHP = b.Cfg.DisablePHP
		lfibs := make(map[topo.NodeID]*mpls.LFIB)
		for _, n := range b.providerNodes {
			r := b.routers[n]
			b.LDP.UseTables(n, b.allocs[n], r.LFIB, r.FTN)
			lfibs[n] = r.LFIB
		}
		b.LDP.Converge()
		b.RSVP = rsvp.NewOver(b.G, b.allocs, lfibs, b.providerNodes)
		b.wireRSVPHooks()
		b.configureDSTE()
		b.signalBypasses(nil)
	}

	// Global IP routes to provider loopbacks (control traffic, and the
	// entire data plane in PlainIP mode). The IGP's change ledgers are
	// drained: everything they list is installed here, and the first
	// link-flap reconvergence must see only its own delta.
	for _, n := range b.providerNodes {
		r := b.routers[n]
		inst := b.IGP.Instance(n)
		inst.TakeChangedDests()
		for _, rt := range inst.Routes() {
			r.IPTable.Insert(addr.HostPrefix(ospf.Loopback(rt.Dest)), rt.NextHop)
		}
	}

	// BGP speakers at every PE.
	for _, n := range b.peNodes {
		sp := b.BGP.AddSpeaker(n, ospf.Loopback(n))
		node := n
		sp.Filter = func(r *bgp.VPNRoute) bool { return b.peWantsRoute(node, r) }
	}
	if b.Cfg.RouteReflector != "" {
		rrNode := b.mustNode(b.Cfg.RouteReflector)
		if _, ok := b.BGP.Speaker(rrNode); !ok {
			b.BGP.AddSpeaker(rrNode, ospf.Loopback(rrNode))
		}
		b.BGP.UseRouteReflector(rrNode)
	} else if b.Cfg.ReflectorClusters > 0 {
		b.BGP.UseClusters(b.electClusters())
	}

	// QoS ports everywhere (provider links so far; access ports are added
	// per site with the same factory).
	b.Net.SetSchedulerFactory(func(l *topo.Link) qos.Scheduler {
		s := b.newScheduler()
		if h, ok := s.(*qos.HybridScheduler); ok && b.Cfg.EFLimitFraction > 0 {
			h.SetEFLimit(qos.NewTokenBucket(b.Cfg.EFLimitFraction*l.Bandwidth/8, 4*1500))
		}
		return s
	})
}

// electClusters partitions the PEs into the configured number of
// topology-aware reflector clusters and elects each cluster's reflectors:
// the lowest-numbered ReflectorRedundancy members reflect for the rest.
// Clusters smaller than the redundancy level are all-reflector (their
// routes distribute through the reflector mesh alone).
func (b *Backbone) electClusters() []bgp.Cluster {
	red := b.Cfg.ReflectorRedundancy
	if red <= 0 {
		red = 2
	}
	buckets := topo.ClusterPEs(b.G, b.peNodes, b.Cfg.ReflectorClusters)
	clusters := make([]bgp.Cluster, 0, len(buckets))
	for i, members := range buckets {
		nrr := red
		if nrr > len(members) {
			nrr = len(members)
		}
		clusters = append(clusters, bgp.Cluster{
			ID:      uint32(i + 1),
			RRs:     members[:nrr],
			Clients: members[nrr:],
		})
	}
	return clusters
}

// plainSPF serves the unconstrained shortest-path tree from a TE ingress
// over the provider routers, from incrementally maintained per-ingress
// trees: the source of every intent's target path and of RSVP's preemption
// fallback. The cache is derived state, built on first use and dropped
// outright on node-level faults and restores.
func (b *Backbone) plainSPF(src topo.NodeID) *topo.SPFResult {
	sp, ok := b.teISPF[src]
	if !ok {
		if b.teISPF == nil {
			b.teISPF = make(map[topo.NodeID]*topo.IncrementalSPF)
		}
		sp = topo.NewIncrementalSPF(b.G, src, topo.Constraints{Within: b.RSVP.Scope()})
		b.teISPF[src] = sp
	}
	return sp.Result()
}

// dropTECache discards the incremental SPTs backing the TE plain-path
// fallback — the fallback for events wider than a single tracked link
// flap. The next plainSPF query rebuilds from the current topology.
func (b *Backbone) dropTECache() { b.teISPF = nil }

// applyTELinkChange folds one duplex link event into the cached TE SPTs.
func (b *Backbone) applyTELinkChange(a, z topo.NodeID) {
	if len(b.teISPF) == 0 {
		return
	}
	var lids []topo.LinkID
	if l, ok := b.G.FindLink(a, z); ok {
		lids = append(lids, l.ID)
	}
	if l, ok := b.G.FindLink(z, a); ok {
		lids = append(lids, l.ID)
	}
	for _, sp := range b.teISPF {
		for _, lid := range lids {
			sp.ApplyLinkChange(lid)
		}
	}
}

// peWantsRoute is the automatic route filtering policy: keep a route iff
// some local VRF imports one of its RTs.
func (b *Backbone) peWantsRoute(pe topo.NodeID, r *bgp.VPNRoute) bool {
	for _, v := range b.routers[pe].VRFs {
		if v.WantsRoute(r) {
			return true
		}
	}
	return false
}

// newScheduler builds one port's scheduler per the config.
func (b *Backbone) newScheduler() qos.Scheduler {
	qb := b.Cfg.QueueBytes
	var s qos.Scheduler
	switch b.Cfg.Scheduler {
	case SchedFIFO:
		s = qos.NewFIFO(qb)
	case SchedPriority:
		s = qos.NewPriority(qb)
	case SchedWFQ:
		s = qos.NewWFQ(qb, b.Cfg.WFQWeights)
	case SchedDRR:
		var quanta [qos.NumClasses]int
		for c, w := range b.Cfg.WFQWeights {
			quanta[c] = int(w * 1500)
		}
		s = qos.NewDRR(qb, quanta)
	default:
		s = qos.NewHybrid(qb, b.Cfg.WFQWeights)
	}
	if b.Cfg.WRED {
		if q := s.ClassQueue(qos.ClassBestEffort); q != nil {
			q.Drop = qos.NewRED(qb/4, qb*3/4, 0.1, b.E.Rand().Fork())
		}
	}
	return s
}
