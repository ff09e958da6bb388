// Package device assembles the forwarding plane of each node class in the
// paper's deployment picture (Fig. 3/4): customer hosts and CE routers at
// the premises, PE routers at the provider edge holding VRFs, and P routers
// in the core switching labels only.
//
// A Router's Receive method implements the full ingress pipeline:
//
//	labelled?  -> ILM (swap/pop, PHP)                       [P, PE]
//	access in? -> CE classifier -> VRF lookup -> push VPN   [CE, PE]
//	             label -> push transport label (LDP or TE)
//	otherwise  -> global IP longest-prefix match            [all]
//
// The egress side (per-link QoS scheduling and transmission) lives in the
// netsim package; this package decides *where* a packet goes and what its
// headers look like, netsim decides *when* it gets there.
package device

import (
	"mplsvpn/internal/addr"
	"mplsvpn/internal/ipsec"
	"mplsvpn/internal/mpls"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/vpn"
)

// Kind is the router's role.
type Kind int

// Router roles.
const (
	Host Kind = iota // traffic sink/source at a customer site
	CE               // customer edge
	PE               // provider edge (VRFs live here)
	P                // provider core (labels only)
)

func (k Kind) String() string {
	switch k {
	case Host:
		return "host"
	case CE:
		return "ce"
	case PE:
		return "pe"
	default:
		return "p"
	}
}

// Verdict is the outcome of processing a packet at one router.
type Verdict struct {
	// Deliver means the packet terminated here (reached its destination
	// site/host).
	Deliver bool
	// OutLink is the egress interface when not delivering.
	OutLink topo.LinkID
	// Delay is extra processing time to charge before transmission
	// (e.g. IPSec crypto).
	Delay sim.Time
	// Drop, when not DropNone, means the packet is discarded for this
	// reason. A typed sentinel keeps the hot path free of fmt allocations;
	// observers format text on demand.
	Drop packet.DropReason
}

// Dropped reports whether the verdict discards the packet.
func (v Verdict) Dropped() bool { return v.Drop != packet.DropNone }

// TEKey selects a TE LSP override at an ingress PE: traffic of class Class
// in VRF VRF toward EgressPE rides the pinned LSP instead of the LDP LSP.
// Class may be -1 to match any class; VRF may be "" to match any VPN.
type TEKey struct {
	EgressPE topo.NodeID
	Class    qos.Class
	VRF      string
}

// Router is one forwarding element.
type Router struct {
	Node     topo.NodeID
	Name     string
	Kind     Kind
	Loopback addr.IPv4

	// Label plane (shared with LDP/RSVP control).
	LFIB *mpls.LFIB
	FTN  *mpls.FTN // global/transport FTN: loopback FECs -> LSPs

	// Global IP table: next-hop links for unlabelled, non-VPN traffic.
	IPTable *addr.Table[topo.LinkID]
	// LocalPrefixes are site prefixes terminating at this router (CEs):
	// matching traffic is delivered rather than forwarded.
	LocalPrefixes *addr.Table[bool]

	// VPN state (PE only). Install and remove VRFs only through
	// AddVRF/RemoveVRF, which keep the access bindings pointing at them.
	VRFs       map[string]*vpn.VRF
	accessVRF  map[topo.LinkID]accessBinding     // inbound access link -> VRF
	siteAccess map[string]map[string]topo.LinkID // vrf -> site -> outbound access link

	// TE steering (ingress PE): overrides the LDP transport label. Mutate
	// only through SetTE/DeleteTE, which keep the two-level teIdx in sync;
	// the map itself remains the canonical, digest-iterable view.
	TE    map[TEKey]mpls.NHLFE
	teIdx map[topo.NodeID]*teIndex

	// Edge QoS (CE): CBQ classification and marking.
	Classifier *qos.Classifier

	// MapDSCPToEXP controls whether this PE writes the DiffServ class into
	// pushed labels (the paper's §5 edge mapping). Disabled in the
	// best-effort ablation.
	MapDSCPToEXP bool

	// IPSec gateway state (CE in the E3 baseline). The SA slice for a
	// prefix is indexed by forwarding class modulo its length: a single
	// entry shares one SA across classes (subject to the anti-replay vs
	// reordering interaction E3 measures); NumClasses entries give each
	// class its own replay window, the standard operational fix.
	EncapTunnels *addr.Table[[]*ipsec.SA] // dst prefix -> outbound SAs by class
	DecapSAs     map[uint32]*ipsec.SA     // SPI -> inbound SA

	// Counters.
	Delivered      int
	DroppedTTL     int
	DroppedNoLabel int // labelled packet with no ILM binding (distinct from TTL)
	DroppedNoRoute int
	DroppedPolicer int
	IPLookups      int
	LabelLookups   int
	EXPMapped      int // pushes that carried a DSCP-derived EXP marking
}

// New creates a router of the given kind.
func New(node topo.NodeID, name string, kind Kind, loopback addr.IPv4) *Router {
	return &Router{
		Node: node, Name: name, Kind: kind, Loopback: loopback,
		LFIB:       mpls.NewLFIB(),
		FTN:        mpls.NewFTN(),
		IPTable:    addr.NewTable[topo.LinkID](),
		VRFs:       make(map[string]*vpn.VRF),
		accessVRF:  make(map[topo.LinkID]accessBinding),
		siteAccess: make(map[string]map[string]topo.LinkID),
		TE:         make(map[TEKey]mpls.NHLFE),
		teIdx:      make(map[topo.NodeID]*teIndex),
		DecapSAs:   make(map[uint32]*ipsec.SA),
	}
}

// accessBinding is what an inbound access link is bound to: the VRF's name,
// which is what a checkpoint carries, and the VRF itself, resolved when
// either side of the binding changes and not per packet. vrf is nil while
// the router has no VRF of that name.
type accessBinding struct {
	name string
	vrf  *vpn.VRF
}

// AddVRF installs v under its name, replacing any VRF of the same name.
func (r *Router) AddVRF(v *vpn.VRF) {
	r.VRFs[v.Name] = v
	r.rebindAccess(v.Name, v)
}

// RemoveVRF removes the named VRF. Access links bound to it stay bound to
// the name and match nothing until a VRF of that name is added again.
func (r *Router) RemoveVRF(name string) {
	delete(r.VRFs, name)
	r.rebindAccess(name, nil)
}

func (r *Router) rebindAccess(name string, v *vpn.VRF) {
	for in, b := range r.accessVRF {
		if b.name == name {
			r.accessVRF[in] = accessBinding{name, v}
		}
	}
}

// BindAccess associates an inbound access link with a VRF: packets arriving
// on it are looked up in that VPN's table. This is the "VPN interface" of
// the paper's Fig. 3.
func (r *Router) BindAccess(in topo.LinkID, vrfName string) {
	r.accessVRF[in] = accessBinding{vrfName, r.VRFs[vrfName]}
}

// AccessVRF returns the VRF bound to an inbound link.
func (r *Router) AccessVRF(in topo.LinkID) (*vpn.VRF, bool) {
	b := r.accessVRF[in]
	return b.vrf, b.vrf != nil
}

// UnbindAccess removes the inbound access-link binding installed by
// BindAccess (site deprovisioning).
func (r *Router) UnbindAccess(in topo.LinkID) {
	delete(r.accessVRF, in)
}

// UnbindSiteAccess removes the outbound access-link binding installed by
// BindSiteAccess, dropping the per-VRF map when it empties.
func (r *Router) UnbindSiteAccess(vrfName, site string) {
	m := r.siteAccess[vrfName]
	delete(m, site)
	if len(m) == 0 {
		delete(r.siteAccess, vrfName)
	}
}

// Receive processes a packet arriving on inLink (-1 = locally injected) at
// virtual time now.
func (r *Router) Receive(now sim.Time, p *packet.Packet, inLink topo.LinkID) Verdict {
	p.Hops++

	// 1. Labelled traffic: pure label switching. "The less time devices
	// spend inspecting traffic, the more time they have to forward it."
	if p.MPLS.Depth() > 0 {
		return r.receiveLabeled(p)
	}

	// 2. IPSec gateway: decapsulate tunnels terminating here.
	if p.ESP != nil && p.IP.Dst == r.Loopback {
		return r.receiveESP(p)
	}

	// 3. CE classification: locally injected customer traffic gets
	// classified and marked before anything else (CBQ at the premises).
	if inLink < 0 && r.Classifier != nil {
		if _, ok := r.Classifier.Classify(now, p); !ok {
			r.DroppedPolicer++
			return Verdict{Drop: packet.DropPoliced}
		}
	}

	// 4. IPSec encapsulation at the gateway (E3 baseline): customer
	// traffic entering a protected tunnel.
	if r.EncapTunnels != nil && p.ESP == nil {
		if sas, ok := r.EncapTunnels.Lookup(p.IP.Dst); ok && len(sas) > 0 {
			sa := sas[int(qos.ClassForDSCP(p.IP.DSCP))%len(sas)]
			cost := sa.Encapsulate(p)
			v := r.forwardIP(p, inLink)
			v.Delay += cost
			return v
		}
	}

	return r.forwardIP(p, inLink)
}

func (r *Router) receiveLabeled(p *packet.Packet) Verdict {
	// A pop to "local" (OutLink < 0) with more labels underneath means
	// this router terminates the outer LSP and must process the inner
	// label itself — the non-PHP case. Real LSRs recirculate the packet;
	// we loop, bounded by the stack depth.
	for {
		r.LabelLookups++
		out, labeled, drop := r.LFIB.ProcessLabeled(p)
		if drop != packet.DropNone {
			// Attribute the cause precisely: a missing ILM binding is a
			// control-plane hole, not TTL exhaustion.
			if drop == packet.DropNoLabelBinding {
				r.DroppedNoLabel++
			} else {
				r.DroppedTTL++
			}
			return Verdict{Drop: drop}
		}
		if out >= 0 {
			return Verdict{OutLink: out}
		}
		if labeled && p.MPLS.Depth() > 0 {
			continue // recirculate for the inner label
		}
		// Popped to plain IP addressed here (or delivered VPN payload with
		// no recorded access link).
		if p.MPLS.Depth() == 0 && p.IP.Dst != r.Loopback && r.IPTable.Len() > 0 {
			// Unlabelled now but not for us: continue by IP (non-PHP
			// transit egress of a hop-by-hop LSP).
			return r.forwardIP(p, -1)
		}
		r.Delivered++
		return Verdict{Deliver: true}
	}
}

func (r *Router) receiveESP(p *packet.Packet) Verdict {
	sa, ok := r.DecapSAs[p.ESP.SPI]
	if !ok {
		r.DroppedNoRoute++
		return Verdict{Drop: packet.DropNoSA}
	}
	cost, drop := sa.Decapsulate(p)
	if drop != packet.DropNone {
		return Verdict{Drop: drop}
	}
	// Decapsulated inner packet continues by IP (usually delivered to the
	// site behind this gateway).
	v := r.forwardIP(p, -1)
	v.Delay += cost
	return v
}

// forwardIP handles unlabelled IP: VRF context if the packet came in on an
// access interface, else the global table.
func (r *Router) forwardIP(p *packet.Packet, inLink topo.LinkID) Verdict {
	if p.IP.TTL <= 1 {
		r.DroppedTTL++
		return Verdict{Drop: packet.DropTTLExpired}
	}
	p.IP.TTL--

	// VRF context: access interface or locally injected at a PE with
	// exactly one VRF-bound access (CE-side injection convenience).
	if vrf, ok := r.AccessVRF(inLink); ok {
		return r.forwardVRF(p, vrf)
	}

	// Delivery to this router itself or to the site prefixes behind it.
	if p.IP.Dst == r.Loopback {
		r.Delivered++
		return Verdict{Deliver: true}
	}
	if r.LocalPrefixes != nil {
		if lp, _, ok := r.LocalPrefixes.LookupPrefix(p.IP.Dst); ok {
			// A more specific unicast route (a host /32 on the site LAN)
			// overrides local delivery; otherwise the site prefix
			// terminates here.
			if rp, _, ok2 := r.IPTable.LookupPrefix(p.IP.Dst); !ok2 || rp.Len <= lp.Len {
				r.Delivered++
				return Verdict{Deliver: true}
			}
		}
	}

	// Transport LSP entry: destinations covered by the FTN (PE loopbacks)
	// get labelled — but only when MPLS is enabled on this router. The
	// flow hash pins flows to one ECMP member.
	if e, ok := r.FTN.LookupHashed(p.IP.Dst, p.FlowHash()); ok {
		r.IPLookups++
		if e.OutLabel != packet.LabelImplicitNull {
			r.LFIB.Push(p, e.OutLabel, r.expFor(p))
		}
		// Re-tunnelled FTN entry (inter-AS stitch): add the transport
		// label toward the real next hop and exit via its link.
		if e.BypassLabel != 0 {
			r.LFIB.Push(p, e.BypassLabel, r.expFor(p))
			return Verdict{OutLink: e.BypassLink}
		}
		return Verdict{OutLink: e.OutLink}
	}

	// Plain IP forwarding.
	r.IPLookups++
	if out, ok := r.IPTable.Lookup(p.IP.Dst); ok {
		return Verdict{OutLink: out}
	}
	r.DroppedNoRoute++
	return Verdict{Drop: packet.DropNoRoute}
}

// forwardVRF is the RFC 2547 ingress: VRF lookup, VPN label push, transport
// label push (TE override first, then LDP), or local delivery for
// intra-PE traffic.
func (r *Router) forwardVRF(p *packet.Packet, vrf *vpn.VRF) Verdict {
	// Per-VPN QoS level (§2.2): the whole VPN rides one forwarding class,
	// re-marked at the edge so the customer's own DSCP cannot exceed the
	// purchased service level.
	if vrf.SLAClass >= 0 {
		p.IP.DSCP = qos.DSCPForClass(qos.Class(vrf.SLAClass))
	}
	rt, ok := vrf.Lookup(p.IP.Dst)
	if !ok {
		r.DroppedNoRoute++
		return Verdict{Drop: packet.DropNoRoute}
	}
	if rt.Local {
		// Destination site attaches to this same PE: hairpin out its
		// access link without touching MPLS.
		if out, ok := r.accessLinkForSite(vrf, rt.SiteName); ok {
			return Verdict{OutLink: out}
		}
		r.Delivered++
		return Verdict{Deliver: true}
	}

	exp := r.expFor(p)
	// Inner (VPN) label first.
	r.LFIB.Push(p, rt.VPNLabel, exp)

	// Outer (transport) label: a TE LSP for this VPN/class wins over LDP.
	if e, ok := r.teEntry(rt.EgressPE, qos.ClassForDSCP(p.IP.DSCP), vrf.Name); ok {
		if e.OutLabel != packet.LabelImplicitNull {
			r.LFIB.Push(p, e.OutLabel, exp)
		}
		return Verdict{OutLink: e.OutLink}
	}
	if e, ok := r.FTN.LookupHashed(rt.NextHop, p.FlowHash()); ok {
		if e.OutLabel != packet.LabelImplicitNull {
			r.LFIB.Push(p, e.OutLabel, exp)
		}
		if e.BypassLabel != 0 {
			r.LFIB.Push(p, e.BypassLabel, exp)
			return Verdict{OutLink: e.BypassLink}
		}
		return Verdict{OutLink: e.OutLink}
	}
	r.DroppedNoRoute++
	return Verdict{Drop: packet.DropNoTransportLSP}
}

// teIndex is the per-egress half of the two-level TE index: wildcard-VRF
// slots plus a map of per-VRF slots. It replaces the old 4-probe map scan
// in teEntry with at most one small map lookup and array indexing.
type teIndex struct {
	byVRF  map[string]*teSlots
	anyVRF teSlots
}

// teSlots holds the per-class and any-class NHLFEs for one VRF scope.
type teSlots struct {
	byClass  [qos.NumClasses]mpls.NHLFE
	okClass  [qos.NumClasses]bool
	anyClass mpls.NHLFE
	okAny    bool
}

func (s *teSlots) lookup(c qos.Class) (mpls.NHLFE, bool) {
	if c >= 0 && c < qos.NumClasses && s.okClass[c] {
		return s.byClass[c], true
	}
	if s.okAny {
		return s.anyClass, true
	}
	return mpls.NHLFE{}, false
}

func (s *teSlots) set(c qos.Class, e mpls.NHLFE) {
	if c < 0 {
		s.anyClass, s.okAny = e, true
		return
	}
	s.byClass[c], s.okClass[c] = e, true
}

func (s *teSlots) clear(c qos.Class) {
	if c < 0 {
		s.anyClass, s.okAny = mpls.NHLFE{}, false
		return
	}
	s.byClass[c], s.okClass[c] = mpls.NHLFE{}, false
}

// SetTE installs (or replaces) a TE steering entry, keeping the canonical
// map and the hot-path index in sync.
func (r *Router) SetTE(k TEKey, e mpls.NHLFE) {
	r.TE[k] = e
	idx := r.teIdx[k.EgressPE]
	if idx == nil {
		idx = &teIndex{byVRF: make(map[string]*teSlots)}
		r.teIdx[k.EgressPE] = idx
	}
	if k.VRF == "" {
		idx.anyVRF.set(k.Class, e)
		return
	}
	s := idx.byVRF[k.VRF]
	if s == nil {
		s = &teSlots{}
		idx.byVRF[k.VRF] = s
	}
	s.set(k.Class, e)
}

// DeleteTE removes a TE steering entry from both the map and the index.
func (r *Router) DeleteTE(k TEKey) {
	delete(r.TE, k)
	idx := r.teIdx[k.EgressPE]
	if idx == nil {
		return
	}
	if k.VRF == "" {
		idx.anyVRF.clear(k.Class)
		return
	}
	if s := idx.byVRF[k.VRF]; s != nil {
		s.clear(k.Class)
	}
}

// teEntry finds a TE override for (egress, class, vrf), most specific
// match first: exact VRF before the any-VPN wildcard, exact class before
// the any-class wildcard.
func (r *Router) teEntry(egress topo.NodeID, c qos.Class, vrfName string) (mpls.NHLFE, bool) {
	idx, ok := r.teIdx[egress]
	if !ok {
		return mpls.NHLFE{}, false
	}
	if s := idx.byVRF[vrfName]; s != nil {
		if e, ok := s.lookup(c); ok {
			return e, true
		}
	}
	return idx.anyVRF.lookup(c)
}

// expFor computes the EXP bits written into pushed labels: the §5 edge
// mapping when enabled, zero (best effort) otherwise.
func (r *Router) expFor(p *packet.Packet) uint8 {
	if !r.MapDSCPToEXP {
		return 0
	}
	r.EXPMapped++
	return qos.EXPForClass(qos.ClassForDSCP(p.IP.DSCP))
}

// BindSiteAccess records the outbound access link used to reach an attached
// site's CE: the egress half of the Fig. 3 VPN interface. Call alongside
// BindAccess during provisioning.
func (r *Router) BindSiteAccess(vrfName, site string, out topo.LinkID) {
	m := r.siteAccess[vrfName]
	if m == nil {
		m = make(map[string]topo.LinkID)
		r.siteAccess[vrfName] = m
	}
	m[site] = out
}

// accessLinkForSite finds the outbound access link for a VRF's local site.
func (r *Router) accessLinkForSite(vrf *vpn.VRF, site string) (topo.LinkID, bool) {
	l, ok := r.siteAccess[vrf.Name][site]
	return l, ok
}
