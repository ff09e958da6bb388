// Inter-AS peerings (RFC 4364 §10): the boundary layer that lets a VPN span
// any number of provider backbones over option A, B, or C peerings, the
// option selected per peering, with AS-level failover.
//
// The layer works in handles. For every (VPN, origin AS) pair it computes
// the prefixes the origin exports and, per prefix, a handle — a (node,
// label) pair meaning "a packet presented at this node with this top label
// reaches the origin site". The handle starts at the origin's real egress
// PE with the real VPN label, then propagates outward along the AS-level
// shortest-path tree of the cross-provider multigraph selector
// (topo.Multigraph), transformed at every boundary according to the
// peering's option:
//
//   - Option A (back-to-back VRFs): the importing ASBR installs the
//     prefixes as external VRF routes, allocates a label that pops onto the
//     peering link, and re-originates into its own MP-BGP. Plain IP crosses
//     the boundary; the exporting ASBR treats the link as a CE attachment.
//   - Option B (labeled eBGP between ASBRs): the exporting ASBR allocates a
//     per-prefix boundary label whose ILM swaps to the current handle and
//     re-tunnels toward the handle's node; the importing ASBR allocates its
//     own label swapping to the boundary label across the link, then
//     re-originates with next-hop-self. The packet crosses labelled.
//   - Option C (multihop eBGP VPNv4): the VPN label is carried end to end —
//     the handle crosses the boundary *unchanged* — and only transport is
//     stitched: a per-target stitch label at the exporting ASBR continues
//     toward the handle's node, and every PE of the importing AS gets an
//     FTN entry for the foreign loopback that pushes the stitch label under
//     its own transport toward the ASBR.
//
// On boundary failure the selector flips the dead edges down, re-selects,
// and the diff of the two trees is torn down and re-provisioned — the
// cross-provider failover E21 measures.
package core

import (
	"fmt"
	"slices"
	"sort"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/bgp"
	"mplsvpn/internal/mpls"
	"mplsvpn/internal/ospf"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/vpn"
)

// InterASOption selects the RFC 4364 inter-AS interconnect style.
type InterASOption int

// Inter-AS interconnect options.
const (
	OptionDefault InterASOption = iota // option A
	OptionA                            // back-to-back VRF subinterfaces
	OptionB                            // labeled eBGP VPN-IPv4 between ASBRs
	OptionC                            // multihop eBGP VPNv4, label end to end
)

func (o InterASOption) String() string {
	switch o {
	case OptionA:
		return "A"
	case OptionB:
		return "B"
	case OptionC:
		return "C"
	}
	return "default"
}

// Per-option boundary processing overhead folded into the multigraph edge
// cost (seconds) when PeeringSpec.AbstractDelay is unset: option A pays an
// IP hop per VPN, B a label swap, C only transport stitching.
const (
	optionACost = 300e-6
	optionBCost = 200e-6
	optionCCost = 100e-6
)

func (o InterASOption) abstractCost() float64 {
	switch o {
	case OptionB:
		return optionBCost
	case OptionC:
		return optionCCost
	}
	return optionACost
}

// PeeringSpec describes one inter-AS interconnect between two ASBRs.
type PeeringSpec struct {
	ASA, ASBRA string // provider + its ASBR node name
	ASB, ASBRB string

	// VPNs carried over this peering; empty means every VPN both sides
	// define.
	VPNs []string

	// Option is the interconnect style; OptionDefault means option A.
	Option InterASOption

	// Physical peering-link parameters (defaults 100 Mb/s, 1 ms).
	Bandwidth float64
	Delay     sim.Time

	// AbstractDelay overrides the multigraph edge cost in seconds
	// (default: link delay plus the option's processing overhead).
	AbstractDelay float64
}

// peering is the live state of one provisioned interconnect.
type peering struct {
	id     int
	spec   PeeringSpec
	opt    InterASOption
	nA, nB topo.NodeID
	linkAB topo.LinkID // ASBR A -> ASBR B
	linkBA topo.LinkID // ASBR B -> ASBR A

	// subs holds option A's per-VPN subinterface link pairs: back-to-back
	// VRFs exchange plain IP, so each VPN needs its own link for arrival
	// classification (options B and C share the single labelled bearer and
	// leave subs nil).
	subs map[string]subif

	// The hello state machine (EnableInterASSurvivability).
	survSession
	// down marks the edge unselectable (detected failure, or FailPeering).
	down bool
	// cut marks a deliberate peering-link failure (FailPeering), an
	// independent axis from a whole-AS outage.
	cut bool
}

// subif is one option-A per-VPN subinterface: a duplex link pair.
type subif struct {
	ab topo.LinkID // ASBR A -> ASBR B
	ba topo.LinkID // ASBR B -> ASBR A
}

// links returns every physical link of the peering, bearer and subinterfaces.
func (p *peering) links() []topo.LinkID {
	out := []topo.LinkID{p.linkAB, p.linkBA}
	names := make([]string, 0, len(p.subs))
	for v := range p.subs {
		names = append(names, v)
	}
	sort.Strings(names)
	for _, v := range names {
		out = append(out, p.subs[v].ab, p.subs[v].ba)
	}
	return out
}

// carries reports whether the peering transports the named VPN.
func (p *peering) carries(vpn string) bool {
	if len(p.spec.VPNs) == 0 {
		return true
	}
	for _, v := range p.spec.VPNs {
		if v == vpn {
			return true
		}
	}
	return false
}

// asAbstract is one AS's exported abstraction for the multigraph selector.
type asAbstract struct {
	transitDelay float64
	capacity     float64
}

// prefixHandle is the propagating unit: a packet presented at node with
// this top label reaches the origin site.
type prefixHandle struct {
	node  topo.NodeID
	label packet.Label
}

// originKey identifies one (VPN, origin AS) export set.
type originKey struct{ vpn, origin string }

// hopRef is one directed boundary crossing on an install tree.
type hopRef struct {
	peering  int
	from, to string
}

// Teardown references — everything an install touched, in plain data so a
// checkpoint can serialize them and a restore can keep tearing down.
type ilmRef struct {
	as    string
	node  topo.NodeID
	label packet.Label
}
type ftnRef struct {
	as   string
	node topo.NodeID
	fec  addr.Prefix
}
type extRef struct {
	as     string
	node   topo.NodeID
	prefix addr.Prefix
	site   string
}
type routeRef struct {
	as     string
	node   topo.NodeID
	prefix addr.VPNPrefix
}
type accessRef struct {
	as   string
	node topo.NodeID
	link topo.LinkID
}

// originInstall records one (VPN, origin) export set's provisioned state.
type originInstall struct {
	hops    []hopRef
	ilms    []ilmRef
	ftns    []ftnRef
	exts    []extRef
	routes  []routeRef
	access  []accessRef
	stitchK []stitchKey // references into the shared stitch cache
}

// stitchKey identifies one option-C transport stitch: a foreign target
// reachable across one directed boundary crossing.
type stitchKey struct {
	peering int
	from    string // exporting AS (closer to the target)
	target  topo.NodeID
}

// stitchRec is the shared state of one transport stitch, refcounted because
// several (VPN, origin) sets can stitch the same foreign PE loopback across
// the same boundary.
type stitchRec struct {
	count int
	tn    packet.Label // stitch label at the exporting ASBR
	ilms  []ilmRef
	ftns  []ftnRef
}

// InterASSurvivabilityOptions tunes the peering hello state machine. Zero
// values select the same defaults as SurvivabilityOptions.
type InterASSurvivabilityOptions struct {
	Hello      sim.Time
	HoldMisses int
	// GracefulRestart retains the selection (and every boundary label
	// binding) across a flap for RestartTime before declaring the peering
	// dead and re-selecting — RFC 4724 stale retention at the AS boundary.
	GracefulRestart bool
	RestartTime     sim.Time
	// Horizon bounds the pre-scheduled scans in virtual time.
	Horizon sim.Time
}

// InterASStats is the inter-AS layer's externally visible accounting.
type InterASStats struct {
	PeeringFlaps    int // peering sessions declared lost
	PeeringRestores int // peering sessions re-established
	Failovers       int // (VPN, origin) trees re-selected onto new paths
	Reinstalls      int // full boundary re-binds after reconvergence
	Partitioned     int // (VPN, origin, dest) pairs left with no path
}

// interASPlane is the peering layer's state hanging off InterAS.
type interASPlane struct {
	peerings []*peering
	abstract map[string]asAbstract
	installs map[originKey]*originInstall
	stitches map[stitchKey]*stitchRec
	failed   map[string]bool // ASes taken down by FailAS
	// restoring marks ASes whose RestoreAS has run but whose reconvergence
	// has not completed yet: peers keep treating them as dead until the
	// control plane is actually back, so the selector never routes into a
	// half-rebuilt label plane.
	restoring map[string]bool
	surv      *InterASSurvivabilityOptions // nil until EnableInterASSurvivability
	stats     InterASStats
}

func (x *InterAS) plane() *interASPlane {
	if x.peer == nil {
		x.peer = &interASPlane{
			abstract:  make(map[string]asAbstract),
			installs:  make(map[originKey]*originInstall),
			stitches:  make(map[stitchKey]*stitchRec),
			failed:    make(map[string]bool),
			restoring: make(map[string]bool),
		}
	}
	return x.peer
}

// SetASTransit publishes one AS's abstraction to the cross-provider
// selector: an interior transit delay (seconds) charged when paths cross
// the AS, and an informational capacity floor. An AS the simulation does
// not host is refused with a *ProvisionError (ProvUnknownAS).
func (x *InterAS) SetASTransit(name string, transitDelay, capacity float64) error {
	if _, ok := x.ASes[name]; !ok {
		return provErr(ProvUnknownAS, "as:"+name, "unknown AS %q", name)
	}
	x.plane().abstract[name] = asAbstract{transitDelay: transitDelay, capacity: capacity}
	return nil
}

// AddPeering provisions one inter-AS interconnect: the physical duplex link
// between the ASBRs with QoS schedulers on both directions, and a distinct
// multigraph edge for the selector. Returns the peering id. Call
// ReconcilePeerings once sites are provisioned and both ASes converged.
//
// A spec naming an AS the simulation does not host, an ASBR that is not a
// PE of its AS, or a VPN one side does not define is refused with a
// *ProvisionError before anything is added.
func (x *InterAS) AddPeering(spec PeeringSpec) (int, error) {
	a, na, err := x.peeringEnd(spec.ASA, spec.ASBRA)
	if err != nil {
		return -1, err
	}
	b, nb, err := x.peeringEnd(spec.ASB, spec.ASBRB)
	if err != nil {
		return -1, err
	}
	for _, v := range spec.VPNs {
		if _, ok := a.vpns[v]; !ok {
			return -1, provErr(ProvUnknownVPN, "vpn:"+v, "AS %s has no VPN %q", spec.ASA, v)
		}
		if _, ok := b.vpns[v]; !ok {
			return -1, provErr(ProvUnknownVPN, "vpn:"+v, "AS %s has no VPN %q", spec.ASB, v)
		}
	}
	if spec.Bandwidth == 0 {
		spec.Bandwidth = 100e6
	}
	if spec.Delay == 0 {
		spec.Delay = sim.Millisecond
	}
	opt := spec.Option
	if opt == OptionDefault {
		opt = OptionA
	}
	if spec.AbstractDelay == 0 {
		spec.AbstractDelay = spec.Delay.Seconds() + opt.abstractCost()
	}

	// Back-to-back VRFs exchange plain IP, so option A's arrival
	// classification needs one subinterface (modelled as its own link pair)
	// per VPN. The carried set is frozen here: list the VPNs in the spec or
	// define them before AddPeering.
	var subVPNs []string
	if opt == OptionA {
		subVPNs = spec.VPNs
		if len(subVPNs) == 0 {
			for v := range a.vpns {
				if _, ok := b.vpns[v]; ok {
					subVPNs = append(subVPNs, v)
				}
			}
			sort.Strings(subVPNs)
		}
		if len(subVPNs) == 0 {
			return -1, provErr(ProvUnknownVPN, "peering:"+spec.ASA+"<->"+spec.ASB,
				"option A peering %s<->%s carries no VPNs", spec.ASA, spec.ASB)
		}
	}

	ab, ba := x.G.AddDuplexLink(na, nb, spec.Bandwidth, spec.Delay, 1)
	x.Net.SetScheduler(ab, a.newScheduler())
	x.Net.SetScheduler(ba, b.newScheduler())

	pl := x.plane()
	p := &peering{id: len(pl.peerings), spec: spec, opt: opt,
		nA: na, nB: nb, linkAB: ab, linkBA: ba}
	if subVPNs != nil {
		p.subs = make(map[string]subif, len(subVPNs))
		for _, v := range subVPNs {
			sab, sba := x.G.AddDuplexLink(na, nb, spec.Bandwidth, spec.Delay, 1)
			x.Net.SetScheduler(sab, a.newScheduler())
			x.Net.SetScheduler(sba, b.newScheduler())
			p.subs[v] = subif{ab: sab, ba: sba}
		}
	}

	pl.peerings = append(pl.peerings, p)
	return p.id, nil
}

// peeringEnd resolves one end of a peering spec: the AS by name, and its
// ASBR, which must be one of that AS's PEs.
func (x *InterAS) peeringEnd(as, asbr string) (*Backbone, topo.NodeID, error) {
	b, ok := x.ASes[as]
	if !ok {
		return nil, 0, provErr(ProvUnknownAS, "as:"+as, "unknown AS %q", as)
	}
	if !b.IsPE(asbr) {
		return nil, 0, provErr(ProvUnknownNode, "node:"+asbr, "AS %s has no PE %q to serve as ASBR", as, asbr)
	}
	id, _ := b.G.NodeByName(asbr)
	return b, id, nil
}

// vpnGraph builds the selector's view for one VPN: every AS as a node with
// its abstraction, and every up peering carrying the VPN as a distinct
// edge. The returned slice maps local edge IDs back to peering indexes.
func (x *InterAS) vpnGraph(vpn string) (*topo.Multigraph, []int) {
	pl := x.plane()
	g := topo.NewMultigraph()
	for _, name := range x.order {
		ab := pl.abstract[name]
		g.AddAS(name, ab.transitDelay, ab.capacity)
	}
	var toPeering []int
	for _, p := range pl.peerings {
		if !p.carries(vpn) {
			continue
		}
		id := g.AddEdge(p.spec.ASA, p.spec.ASB, p.spec.AbstractDelay, p.spec.Bandwidth)
		if p.down {
			g.SetEdgeDown(id, true)
		}
		toPeering = append(toPeering, p.id)
		if id != len(toPeering)-1 {
			panic("core: multigraph edge id out of step with peering map")
		}
	}
	return g, toPeering
}

// peeringVPNs returns the sorted union of VPNs carried by any peering and
// defined in at least one AS.
func (x *InterAS) peeringVPNs() []string {
	seen := make(map[string]bool)
	for _, p := range x.plane().peerings {
		if len(p.spec.VPNs) == 0 {
			// Wildcard peering: every VPN defined on both its ends.
			a, b := x.AS(p.spec.ASA), x.AS(p.spec.ASB)
			for v := range a.vpns {
				if _, ok := b.vpns[v]; ok {
					seen[v] = true
				}
			}
			continue
		}
		for _, v := range p.spec.VPNs {
			seen[v] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// originPrefixes collects the prefixes AS b exports for a VPN — sites
// attached within it (Local, not External) — with their real egress
// handles, in deterministic order.
func (x *InterAS) originPrefixes(b *Backbone, vpn string) ([]addr.Prefix, map[addr.Prefix]prefixHandle) {
	names := make([]string, 0, len(b.sites))
	for n := range b.sites {
		names = append(names, n)
	}
	sort.Strings(names)
	var prefixes []addr.Prefix
	handles := make(map[addr.Prefix]prefixHandle)
	for _, n := range names {
		rec := b.sites[n]
		if rec.Spec.VPN != vpn {
			continue
		}
		pe, labels := b.egressOf(rec)
		ps := make([]addr.Prefix, 0, len(labels))
		for p := range labels {
			ps = append(ps, p)
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].String() < ps[j].String() })
		for _, p := range ps {
			if _, dup := handles[p]; dup {
				continue
			}
			prefixes = append(prefixes, p)
			handles[p] = prefixHandle{node: pe, label: labels[p]}
		}
	}
	return prefixes, handles
}

// egressOf returns the PE a site's traffic leaves its AS at, and that
// attachment's VPN labels: the primary's, unless FailSitePrimary has
// detached the site from it and the backup carries it.
func (b *Backbone) egressOf(rec *siteRecord) (topo.NodeID, map[addr.Prefix]packet.Label) {
	if rec.backupLabels != nil {
		if v, ok := b.routers[rec.PE].VRFs[rec.Spec.VPN]; !ok || !v.HasSite(rec.Spec.Name) {
			return rec.backupPE, rec.backupLabels
		}
	}
	return rec.PE, rec.labels
}

// desiredHops computes the install tree for one (VPN, origin): the directed
// boundary crossings of every selected path, deduplicated in a
// deterministic order where a hop's predecessor always precedes it.
func (x *InterAS) desiredHops(vpn, origin string) []hopRef {
	g, toPeering := x.vpnGraph(vpn)
	tree := g.SelectTree(origin)
	var hops []hopRef
	seen := make(map[hopRef]bool)
	for _, dest := range x.order {
		if dest == origin {
			continue
		}
		path, ok := tree[dest]
		if !ok {
			continue
		}
		for _, h := range path.Hops {
			ref := hopRef{peering: toPeering[h.EdgeID], from: h.From, to: h.To}
			if !seen[ref] {
				seen[ref] = true
				hops = append(hops, ref)
			}
		}
	}
	return hops
}

// current reports whether an install still provisions the selection
// desired. exportsChanged clears an install's hops, so a cleared install
// differs from every selection but the empty one; an install of the empty
// selection provisions nothing, so one that holds boundary state was cleared
// and is out of date too.
func (inst *originInstall) current(desired []hopRef) bool {
	if !slices.Equal(inst.hops, desired) {
		return false
	}
	return len(desired) > 0 || len(inst.ilms)+len(inst.ftns)+len(inst.exts)+
		len(inst.routes)+len(inst.access)+len(inst.stitchK) == 0
}

// ReconcilePeerings (re)selects every (VPN, origin) tree over the current
// multigraph and re-provisions the boundaries whose selection changed, or
// whose origin AS added or removed a site of the VPN since they were
// installed. Call it after initial provisioning, after site changes, and
// after any out-of-band topology change; the survivability scan calls it on
// every detected transition.
func (x *InterAS) ReconcilePeerings() {
	pl := x.plane()
	touched := make(map[string]bool)
	live := make(map[originKey]bool)
	type work struct {
		key  originKey
		hops []hopRef
	}
	var pending []work
	for _, vpn := range x.peeringVPNs() {
		for _, origin := range x.order {
			b := x.ASes[origin]
			if _, ok := b.vpns[vpn]; !ok {
				continue
			}
			key := originKey{vpn: vpn, origin: origin}
			live[key] = true
			desired := x.desiredHops(vpn, origin)
			inst := pl.installs[key]
			if inst != nil && inst.current(desired) {
				continue
			}
			if inst != nil {
				x.teardownKey(key, touched)
				pl.stats.Failovers++
			}
			pending = append(pending, work{key: key, hops: desired})
		}
	}
	// Export sets whose VPN or origin disappeared from the peering plane.
	for _, key := range sortedOriginKeys(pl.installs) {
		if !live[key] {
			x.teardownKey(key, touched)
		}
	}
	// Flush the withdrawals out of every VRF before re-originating: a stale
	// BGP-learned copy of a prefix would otherwise shadow the new boundary's
	// external route at the importing ASBR.
	x.convergeTouched(touched)
	for _, w := range pending {
		x.installKey(w.key, w.hops, touched)
	}
	x.convergeTouched(touched)
}

// reinstallAll force-rebuilds every boundary installation — the
// onReconverged hook: an AS's wholesale label-plane rebuild dropped every
// boundary ILM/FTN and invalidated every captured transport label, so all
// trees re-derive from the fresh tables.
func (x *InterAS) reinstallAll() {
	pl := x.plane()
	if len(pl.installs) == 0 && len(pl.peerings) == 0 {
		return
	}
	pl.stats.Reinstalls++
	touched := make(map[string]bool)
	for _, key := range sortedOriginKeys(pl.installs) {
		x.teardownKey(key, touched)
	}
	x.convergeTouched(touched)
	for _, vpn := range x.peeringVPNs() {
		for _, origin := range x.order {
			if _, ok := x.ASes[origin].vpns[vpn]; !ok {
				continue
			}
			key := originKey{vpn: vpn, origin: origin}
			x.installKey(key, x.desiredHops(vpn, origin), touched)
		}
	}
	x.convergeTouched(touched)
}

// exportsChanged is each member's onExportsChanged hook: AS origin added or
// removed a site of vpn, so the boundary state installed for that export set
// no longer matches it. Clearing the install's hops leaves the marker in
// state a checkpoint already carries; the next ReconcilePeerings finds the
// install out of date, tears it down and provisions it afresh.
func (x *InterAS) exportsChanged(vpn, origin string) {
	if x.peer == nil {
		return
	}
	if inst := x.peer.installs[originKey{vpn: vpn, origin: origin}]; inst != nil {
		inst.hops = nil
	}
}

func sortedOriginKeys(m map[originKey]*originInstall) []originKey {
	keys := make([]originKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].vpn != keys[j].vpn {
			return keys[i].vpn < keys[j].vpn
		}
		return keys[i].origin < keys[j].origin
	})
	return keys
}

func (x *InterAS) convergeTouched(touched map[string]bool) {
	pl := x.plane()
	for _, name := range x.order {
		// Never push routes into a failed AS's VRFs: its state rebuilds
		// wholesale when it reconverges after RestoreAS.
		if touched[name] && !pl.failed[name] {
			x.ASes[name].ConvergeVPNs()
		}
	}
}

// teardownKey removes everything one (VPN, origin) install provisioned:
// BGP withdrawals, external VRF routes, boundary ILMs, stitch references,
// and access bindings. Unbinds against a crashed AS's wiped tables are
// harmless no-ops.
func (x *InterAS) teardownKey(key originKey, touched map[string]bool) {
	pl := x.plane()
	inst := pl.installs[key]
	if inst == nil {
		return
	}
	for _, r := range inst.routes {
		b := x.ASes[r.as]
		if sp, ok := b.BGP.Speaker(r.node); ok {
			sp.WithdrawLocal(r.prefix)
		}
		touched[r.as] = true
	}
	for _, e := range inst.exts {
		b := x.ASes[e.as]
		if v, ok := b.routers[e.node].VRFs[key.vpn]; ok {
			v.RemoveExternal(e.prefix, e.site)
		}
		touched[e.as] = true
	}
	for _, i := range inst.ilms {
		x.ASes[i.as].routers[i.node].LFIB.UnbindILM(i.label)
	}
	for _, f := range inst.ftns {
		x.ASes[f.as].routers[f.node].FTN.Unbind(f.fec)
	}
	for _, a := range inst.access {
		x.ASes[a.as].routers[a.node].UnbindAccess(a.link)
	}
	for _, sk := range inst.stitchK {
		x.releaseStitch(sk)
	}
	delete(pl.installs, key)
}

// installKey provisions one (VPN, origin) tree hop by hop, propagating the
// per-prefix handles outward from the origin.
func (x *InterAS) installKey(key originKey, hops []hopRef, touched map[string]bool) {
	pl := x.plane()
	origin := x.ASes[key.origin]
	prefixes, seed := x.originPrefixes(origin, key.vpn)
	inst := &originInstall{hops: hops}
	pl.installs[key] = inst
	if len(prefixes) == 0 {
		return
	}
	handles := map[string]map[addr.Prefix]prefixHandle{key.origin: seed}
	depth := map[string]int{key.origin: 0}
	for _, h := range hops {
		p := pl.peerings[h.peering]
		from, to := x.ASes[h.from], x.ASes[h.to]
		hFrom := handles[h.from]
		if hFrom == nil {
			continue // upstream hop failed to install
		}
		// Orient the peering: which ASBR/link pair faces which AS.
		// linkToFrom is the importer-to-exporter direction of the bearer.
		fromASBR, toASBR := p.nA, p.nB
		linkToFrom := p.linkBA
		if h.from == p.spec.ASB {
			fromASBR, toASBR = p.nB, p.nA
			linkToFrom = p.linkAB
		}
		depth[h.to] = depth[h.from] + 1
		hTo := make(map[addr.Prefix]prefixHandle)
		switch p.opt {
		case OptionB:
			x.installHopB(inst, key, prefixes, hFrom, hTo, from, to,
				fromASBR, toASBR, linkToFrom, depth[h.to])
		case OptionC:
			x.installHopC(inst, key, h, prefixes, hFrom, hTo, from, to,
				fromASBR, toASBR, linkToFrom, depth[h.to])
		default: // OptionA
			sub, ok := p.subs[key.vpn]
			if !ok {
				break // no subinterface for this VPN: boundary stays dark
			}
			impToExp := sub.ba
			if h.from == p.spec.ASB {
				impToExp = sub.ab
			}
			x.installHopA(inst, key, h.from, prefixes, hFrom, hTo, from, to,
				fromASBR, toASBR, impToExp, depth[h.to])
		}
		handles[h.to] = hTo
		touched[h.to] = true
		touched[h.from] = true
	}
	// Count destinations the selector could not reach at all (partition).
	for _, dest := range x.order {
		if dest == key.origin {
			continue
		}
		if _, ok := x.ASes[dest].vpns[key.vpn]; !ok {
			continue
		}
		if handles[dest] == nil {
			pl.stats.Partitioned++
		}
	}
}

// installHopA provisions one option-A crossing: back-to-back VRFs over the
// VPN's own subinterface. Plain IP crosses the boundary on impToExp, the
// importer-to-exporter direction of that subinterface.
func (x *InterAS) installHopA(inst *originInstall, key originKey, fromAS string,
	prefixes []addr.Prefix, hFrom, hTo map[addr.Prefix]prefixHandle,
	from, to *Backbone, fromASBR, toASBR topo.NodeID, impToExp topo.LinkID, depth int) {

	// Exporting side: the subinterface from the importer looks like a CE
	// attachment, so arriving IP maps into the VRF and forwards natively on
	// the exporter's own (BGP-derived or local) routes.
	fromR := from.routers[fromASBR]
	if _, ok := fromR.VRFs[key.vpn]; !ok {
		cfg := from.vpns[key.vpn]
		fromR.AddVRF(newVRFFor(cfg, fromASBR))
	}
	fromR.BindAccess(impToExp, key.vpn)
	inst.access = append(inst.access, accessRef{as: fromAS, node: fromASBR, link: impToExp})

	toR := to.routers[toASBR]
	cfg := to.vpns[key.vpn]
	if _, ok := toR.VRFs[key.vpn]; !ok {
		toR.AddVRF(newVRFFor(cfg, toASBR))
	}
	v := toR.VRFs[key.vpn]
	sp, haveBGP := to.BGP.Speaker(toASBR)
	alloc := to.allocs[toASBR]
	toAS := x.nameOf(to)
	for _, p := range prefixes {
		if _, ok := hFrom[p]; !ok {
			continue
		}
		if !v.InstallExternal(p, externalSiteName(fromAS)) {
			continue // importer already owns a better internal route
		}
		inst.exts = append(inst.exts, extRef{as: toAS, node: toASBR, prefix: p, site: externalSiteName(fromAS)})
		if !haveBGP {
			continue
		}
		label := alloc.Alloc()
		toR.LFIB.BindILM(label, mpls.NHLFE{Op: mpls.OpPop, OutLink: impToExp})
		inst.ilms = append(inst.ilms, ilmRef{as: toAS, node: toASBR, label: label})
		vp := addr.VPNPrefix{RD: cfg.RD, Prefix: p}
		sp.Originate(&bgp.VPNRoute{
			Prefix:    vp,
			NextHop:   ospf.Loopback(toASBR),
			Label:     label,
			RTs:       cfg.Exports,
			LocalPref: 100,
			ASPathLen: depth,
			OriginPE:  toASBR,
		})
		inst.routes = append(inst.routes, routeRef{as: toAS, node: toASBR, prefix: vp})
		hTo[p] = prefixHandle{node: toASBR, label: label}
	}
}

// installHopB provisions one option-B crossing: per-prefix boundary labels
// at the exporting ASBR, next-hop-self swap state at the importing ASBR.
func (x *InterAS) installHopB(inst *originInstall, key originKey,
	prefixes []addr.Prefix, hFrom, hTo map[addr.Prefix]prefixHandle,
	from, to *Backbone, fromASBR, toASBR topo.NodeID, linkToFrom topo.LinkID, depth int) {

	fromAS, toAS := x.nameOf(from), x.nameOf(to)
	toR := to.routers[toASBR]
	cfg := to.vpns[key.vpn]
	sp, haveBGP := to.BGP.Speaker(toASBR)
	if !haveBGP {
		return
	}
	toAlloc := to.allocs[toASBR]
	for _, p := range prefixes {
		h, ok := hFrom[p]
		if !ok {
			continue
		}
		boundary, ok := x.entryLabel(inst, fromAS, from, fromASBR, h)
		if !ok {
			continue // handle's node unreachable inside the exporting AS
		}
		local := toAlloc.Alloc()
		toR.LFIB.BindILM(local, mpls.NHLFE{Op: mpls.OpSwap, OutLabel: boundary, OutLink: linkToFrom})
		inst.ilms = append(inst.ilms, ilmRef{as: toAS, node: toASBR, label: local})
		vp := addr.VPNPrefix{RD: cfg.RD, Prefix: p}
		sp.Originate(&bgp.VPNRoute{
			Prefix:    vp,
			NextHop:   ospf.Loopback(toASBR),
			Label:     local,
			RTs:       cfg.Exports,
			LocalPref: 100,
			ASPathLen: depth,
			OriginPE:  toASBR,
		})
		inst.routes = append(inst.routes, routeRef{as: toAS, node: toASBR, prefix: vp})
		hTo[p] = prefixHandle{node: toASBR, label: local}
	}
}

// installHopC provisions one option-C crossing: the handle (and so the VPN
// label) crosses unchanged; only transport is stitched, per distinct
// handle target, and the importing AS learns the routes with the foreign
// next hop.
func (x *InterAS) installHopC(inst *originInstall, key originKey, hop hopRef,
	prefixes []addr.Prefix, hFrom, hTo map[addr.Prefix]prefixHandle,
	from, to *Backbone, fromASBR, toASBR topo.NodeID, linkToFrom topo.LinkID, depth int) {

	toAS := x.nameOf(to)
	cfg := to.vpns[key.vpn]
	sp, haveBGP := to.BGP.Speaker(toASBR)
	if !haveBGP {
		return
	}
	// Distinct handle targets, in deterministic order.
	targets := make([]topo.NodeID, 0, 4)
	seen := make(map[topo.NodeID]bool)
	for _, p := range prefixes {
		if h, ok := hFrom[p]; ok && !seen[h.node] {
			seen[h.node] = true
			targets = append(targets, h.node)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })

	stitched := make(map[topo.NodeID]bool)
	for _, n := range targets {
		sk := stitchKey{peering: hop.peering, from: hop.from, target: n}
		if x.acquireStitch(sk, from, to, fromASBR, toASBR, linkToFrom) {
			inst.stitchK = append(inst.stitchK, sk)
			stitched[n] = true
		}
	}
	for _, p := range prefixes {
		h, ok := hFrom[p]
		if !ok || !stitched[h.node] {
			continue
		}
		vp := addr.VPNPrefix{RD: cfg.RD, Prefix: p}
		sp.Originate(&bgp.VPNRoute{
			Prefix:    vp,
			NextHop:   ospf.Loopback(h.node),
			Label:     h.label,
			RTs:       cfg.Exports,
			LocalPref: 100,
			ASPathLen: depth,
			OriginPE:  h.node,
		})
		inst.routes = append(inst.routes, routeRef{as: toAS, node: toASBR, prefix: vp})
		hTo[p] = h // end-to-end label: the handle is unchanged
	}
}

// acquireStitch installs (or references) one transport stitch: stitch
// label Tn at the exporting ASBR continuing toward the target, and FTN
// entries for the target's loopback at every PE of the importing AS.
func (x *InterAS) acquireStitch(sk stitchKey, from, to *Backbone,
	fromASBR, toASBR topo.NodeID, linkToFrom topo.LinkID) bool {
	pl := x.plane()
	if rec, ok := pl.stitches[sk]; ok {
		rec.count++
		return true
	}
	fromAS, toAS := x.nameOf(from), x.nameOf(to)
	fromR := from.routers[fromASBR]
	rec := &stitchRec{count: 1}

	// Exporting side: Tn continues toward the target node.
	tn := from.allocs[fromASBR].Alloc()
	var entry mpls.NHLFE
	if sk.target == fromASBR {
		// The ASBR is the target: expose the inner label and recirculate.
		entry = mpls.NHLFE{Op: mpls.OpPop, OutLink: -1}
	} else {
		t, ok := fromR.FTN.Lookup(ospf.Loopback(sk.target))
		if !ok {
			return false
		}
		switch {
		case t.OutLabel == packet.LabelImplicitNull:
			entry = mpls.NHLFE{Op: mpls.OpPop, OutLink: t.OutLink}
		default:
			entry = mpls.NHLFE{Op: mpls.OpSwap, OutLabel: t.OutLabel, OutLink: t.OutLink,
				BypassLabel: t.BypassLabel, BypassLink: t.BypassLink}
		}
	}
	fromR.LFIB.BindILM(tn, entry)
	rec.tn = tn
	rec.ilms = append(rec.ilms, ilmRef{as: fromAS, node: fromASBR, label: tn})

	// Importing side: tn lives in the exporter's label space, so interior
	// PEs cannot send it raw — a relay label in the importer's own space
	// cross-connects interior transport onto the peering link, where it
	// becomes tn.
	tin := to.allocs[toASBR].Alloc()
	to.routers[toASBR].LFIB.BindILM(tin, mpls.NHLFE{Op: mpls.OpSwap, OutLabel: tn, OutLink: linkToFrom})
	rec.ilms = append(rec.ilms, ilmRef{as: toAS, node: toASBR, label: tin})

	// Every PE of the importing AS learns transport to the foreign loopback.
	fec := addr.HostPrefix(ospf.Loopback(sk.target))
	for _, pe := range to.peNodes {
		r := to.routers[pe]
		var fe mpls.NHLFE
		if pe == toASBR {
			fe = mpls.NHLFE{OutLabel: tn, OutLink: linkToFrom}
		} else {
			t2, ok := r.FTN.Lookup(ospf.Loopback(toASBR))
			if !ok || t2.BypassLabel != 0 {
				continue // ASBR unreachable from this PE right now
			}
			if t2.OutLabel == packet.LabelImplicitNull {
				fe = mpls.NHLFE{OutLabel: tin, OutLink: t2.OutLink}
			} else {
				fe = mpls.NHLFE{OutLabel: tin, BypassLabel: t2.OutLabel, BypassLink: t2.OutLink}
			}
		}
		r.FTN.Bind(fec, fe)
		rec.ftns = append(rec.ftns, ftnRef{as: toAS, node: pe, fec: fec})
	}
	pl.stitches[sk] = rec
	return true
}

// releaseStitch drops one reference to a stitch, unbinding its state when
// the last reference goes.
func (x *InterAS) releaseStitch(sk stitchKey) {
	pl := x.plane()
	rec, ok := pl.stitches[sk]
	if !ok {
		return
	}
	rec.count--
	if rec.count > 0 {
		return
	}
	for _, i := range rec.ilms {
		x.ASes[i.as].routers[i.node].LFIB.UnbindILM(i.label)
	}
	for _, f := range rec.ftns {
		x.ASes[f.as].routers[f.node].FTN.Unbind(f.fec)
	}
	delete(pl.stitches, sk)
}

// entryLabel produces a label at the given ASBR that carries the packet to
// the handle: the handle's own label when the ASBR is the handle's node,
// otherwise a fresh label whose ILM swaps to the handle label and
// re-tunnels toward the node. When the transport entry toward the node is
// itself stitched (option-C upstream), a relay label bridges the
// one-bypass-push NHLFE limit by recirculating locally.
func (x *InterAS) entryLabel(inst *originInstall, asName string, b *Backbone,
	asbr topo.NodeID, h prefixHandle) (packet.Label, bool) {
	if h.node == asbr {
		return h.label, true
	}
	r := b.routers[asbr]
	t, ok := r.FTN.Lookup(ospf.Loopback(h.node))
	if !ok {
		return 0, false
	}
	alloc := b.allocs[asbr]
	e := alloc.Alloc()
	entry := mpls.NHLFE{Op: mpls.OpSwap, OutLabel: h.label}
	switch {
	case t.OutLabel == packet.LabelImplicitNull:
		entry.OutLink = t.OutLink
	case t.BypassLabel == 0:
		entry.BypassLabel = t.OutLabel
		entry.BypassLink = t.OutLink
	default:
		// Transport itself needs two pushes (stitch + interior): relay via
		// local recirculation.
		relay := alloc.Alloc()
		r.LFIB.BindILM(relay, mpls.NHLFE{Op: mpls.OpSwap, OutLabel: t.OutLabel,
			BypassLabel: t.BypassLabel, BypassLink: t.BypassLink})
		inst.ilms = append(inst.ilms, ilmRef{as: asName, node: asbr, label: relay})
		entry.BypassLabel = relay
		entry.BypassLink = -1
	}
	r.LFIB.BindILM(e, entry)
	inst.ilms = append(inst.ilms, ilmRef{as: asName, node: asbr, label: e})
	return e, true
}

// externalSiteName is the site an option-A importer attributes a peer AS's
// prefixes to.
func externalSiteName(peerAS string) string { return "interas:" + peerAS }

// newVRFFor builds an empty VRF from a VPN's control-plane identity.
func newVRFFor(cfg *vpnConfig, pe topo.NodeID) *vpn.VRF {
	return vpn.NewVRF(cfg.Name, pe, cfg.RD, cfg.Imports, cfg.Exports)
}

func (x *InterAS) nameOf(b *Backbone) string {
	for _, name := range x.order {
		if x.ASes[name] == b {
			return name
		}
	}
	panic("core: backbone not hosted by this InterAS")
}

// ---------------------------------------------------------------------------
// AS-level chaos and the peering survivability state machine.

// FailAS crashes an entire provider: every provider router goes down hard
// at once (forwarding state wiped, incident links dark), with no
// notification to the peers — their peering hello machinery must detect the
// silence, exactly like a real AS-wide outage.
func (x *InterAS) FailAS(name string) error {
	b, ok := x.ASes[name]
	if !ok {
		return fmt.Errorf("core: unknown AS %q", name)
	}
	pl := x.plane()
	if pl.failed[name] {
		return fmt.Errorf("core: AS %q already failed", name)
	}
	pl.failed[name] = true
	for _, n := range b.providerNodes {
		if !b.nodeDown[n] {
			delete(b.ctrlDown, n)
			b.hardCrashNode(n)
		}
	}
	b.journal(telemetry.EventNodeDown, "as:"+name, "entire AS failed")
	return nil
}

// RestoreAS brings a failed provider back: nodes restart, surviving links
// come up, and the AS reconverges after detect. The AS stays marked dead to
// its peers until that reconvergence completes — only then do the peering
// scans re-establish boundary sessions and the selector fold it back in, so
// traffic is never re-selected into a half-rebuilt label plane.
func (x *InterAS) RestoreAS(name string, detect sim.Time) error {
	b, ok := x.ASes[name]
	if !ok {
		return fmt.Errorf("core: unknown AS %q", name)
	}
	pl := x.plane()
	if !pl.failed[name] {
		return fmt.Errorf("core: AS %q is not failed", name)
	}
	if pl.restoring[name] {
		return fmt.Errorf("core: AS %q restore already in progress", name)
	}
	pl.restoring[name] = true
	for _, n := range b.providerNodes {
		delete(b.nodeDown, n)
	}
	b.pendingFull = true
	b.dropTECache()
	for i := 0; i < b.G.NumLinks(); i++ {
		l := b.G.Link(topo.LinkID(i))
		if !x.ownsEndpoint(b, l.From) && !x.ownsEndpoint(b, l.To) {
			continue
		}
		if x.anyNodeDown(l.From) || x.anyNodeDown(l.To) {
			continue
		}
		if b.failedLinks[pairKey(l.From, l.To)] {
			continue
		}
		if x.peeringLinkCut(l.ID) {
			continue
		}
		b.G.SetDown(l.ID, false)
	}
	b.journal(telemetry.EventNodeUp, "as:"+name, fmt.Sprintf("AS restored; detect %v", detect))
	b.scheduleReconverge(detect)
	return nil
}

// ASFailed reports whether FailAS has the named AS down (including the
// window between RestoreAS and the completed reconvergence).
func (x *InterAS) ASFailed(name string) bool { return x.plane().failed[name] }

// asReconverged is each member's onReconverged hook: finish a pending
// AS-level restore (the peers may now trust its tables), then force-rebuild
// every boundary installation against the fresh label plane.
func (x *InterAS) asReconverged(name string) {
	pl := x.plane()
	if pl.restoring[name] {
		delete(pl.restoring, name)
		delete(pl.failed, name)
	}
	x.reinstallAll()
}

func (x *InterAS) ownsEndpoint(b *Backbone, n topo.NodeID) bool {
	for _, pn := range b.providerNodes {
		if pn == n {
			return true
		}
	}
	return false
}

func (x *InterAS) anyNodeDown(n topo.NodeID) bool {
	for _, name := range x.order {
		if x.ASes[name].nodeDown[n] {
			return true
		}
	}
	return false
}

func (x *InterAS) peeringLinkCut(l topo.LinkID) bool {
	for _, p := range x.plane().peerings {
		if !p.cut {
			continue
		}
		for _, pl := range p.links() {
			if pl == l {
				return true
			}
		}
	}
	return false
}

// FailPeering takes one interconnect's fibre down immediately: the edge
// leaves the selector, both link directions go dark, and the trees
// re-select — the single-boundary failure axis, independent of FailAS.
func (x *InterAS) FailPeering(id int) error {
	pl := x.plane()
	if id < 0 || id >= len(pl.peerings) {
		return fmt.Errorf("core: unknown peering %d", id)
	}
	p := pl.peerings[id]
	if p.cut {
		return fmt.Errorf("core: peering %d already failed", id)
	}
	p.cut = true
	p.down = true
	p.state = sessDown
	for _, l := range p.links() {
		x.G.SetDown(l, true)
	}
	pl.stats.PeeringFlaps++
	x.journalPeering(p, telemetry.EventLinkDown, "peering fibre cut")
	x.ReconcilePeerings()
	return nil
}

// RestorePeering re-splices a cut interconnect and folds it back into the
// selection.
func (x *InterAS) RestorePeering(id int) error {
	pl := x.plane()
	if id < 0 || id >= len(pl.peerings) {
		return fmt.Errorf("core: unknown peering %d", id)
	}
	p := pl.peerings[id]
	if !p.cut {
		return fmt.Errorf("core: peering %d is not failed", id)
	}
	p.cut = false
	if !pl.failed[p.spec.ASA] && !pl.failed[p.spec.ASB] {
		p.down = false
		p.state = sessUp
		p.misses = 0
		for _, l := range p.links() {
			x.G.SetDown(l, false)
		}
		pl.stats.PeeringRestores++
		x.journalPeering(p, telemetry.EventLinkUp, "peering fibre restored")
		x.ReconcilePeerings()
	}
	return nil
}

// EnableInterASSurvivability switches the boundary hello state machine on:
// every peering is scanned each Hello; HoldMisses silent scans flap it.
// With graceful restart the selection (and all boundary label state) is
// retained stale for RestartTime before the edge is declared dead and the
// trees re-select onto surviving providers.
func (x *InterAS) EnableInterASSurvivability(opts InterASSurvivabilityOptions) {
	pl := x.plane()
	if pl.surv != nil {
		return
	}
	helloDefaults(&opts.Hello, &opts.HoldMisses, &opts.RestartTime)
	pl.surv = &opts
	if opts.Horizon > 0 {
		for t := opts.Hello; t <= opts.Horizon; t += opts.Hello {
			x.E.After(t, x.peeringScan)
		}
	}
}

// peeringScan is one hello round over every peering. Transitions that
// change edge availability trigger one reconcile for the whole plane.
func (x *InterAS) peeringScan() {
	pl := x.plane()
	s := pl.surv
	now := x.E.Now()
	changed := false
	for _, p := range pl.peerings {
		if p.cut {
			continue // deliberate fibre cut: not the hello machine's case
		}
		dead := pl.failed[p.spec.ASA] || pl.failed[p.spec.ASB]
		switch p.scan(dead, now, s.HoldMisses, s.GracefulRestart, s.RestartTime) {
		case helloLost:
			pl.stats.PeeringFlaps++
			detail := "peering session lost; boundary labels stale-retained"
			if p.state == sessDown {
				p.down, changed = true, true
				detail = "peering session lost; boundary routes withdrawn"
			}
			x.journalPeering(p, telemetry.EventSessionFlap, detail)
		case helloExpired:
			p.down, changed = true, true
			x.journalPeering(p, telemetry.EventStaleSwept,
				"peering graceful restart expired; stale boundary state swept")
		case helloRestored:
			// Back from a restart the edge never left the selection; back
			// from down it rejoins it.
			pl.stats.PeeringRestores++
			detail := "peering session re-established within graceful restart"
			if p.down {
				p.down, changed = false, true
				detail = "peering session re-established"
			}
			x.journalPeering(p, telemetry.EventSessionRestored, detail)
		}
	}
	if changed {
		x.ReconcilePeerings()
	}
}

// journalPeering records a peering event into both live sides' journals.
func (x *InterAS) journalPeering(p *peering, kind telemetry.EventKind, detail string) {
	subject := fmt.Sprintf("peering:%d:%s<->%s", p.id, p.spec.ASA, p.spec.ASB)
	msg := fmt.Sprintf("option=%s %s", p.opt, detail)
	if !x.plane().failed[p.spec.ASA] {
		x.ASes[p.spec.ASA].journal(kind, subject, msg)
	}
	if !x.plane().failed[p.spec.ASB] {
		x.ASes[p.spec.ASB].journal(kind, subject, msg)
	}
}

// InterASStatsNow reports the peering layer's counters.
func (x *InterAS) InterASStatsNow() InterASStats { return x.plane().stats }

// SelectedPath returns the currently selected AS path for (vpn, origin →
// dest) as the peering ids crossed, and whether a path exists.
func (x *InterAS) SelectedPath(vpn, origin, dest string) ([]int, bool) {
	g, toPeering := x.vpnGraph(vpn)
	path, ok := g.SelectPath(origin, dest)
	if !ok {
		return nil, false
	}
	out := make([]int, 0, len(path.Hops))
	for _, h := range path.Hops {
		out = append(out, toPeering[h.EdgeID])
	}
	return out, true
}

// SelectionDigest renders the selection state deterministically: every
// peering with its option and session state, and every (VPN, origin) tree.
func (x *InterAS) SelectionDigest() string {
	pl := x.plane()
	out := ""
	for _, p := range pl.peerings {
		out += fmt.Sprintf("peering %d %s(%s)<->%s(%s) option=%s state=%s down=%t cut=%t\n",
			p.id, p.spec.ASA, p.spec.ASBRA, p.spec.ASB, p.spec.ASBRB,
			p.opt, p.state, p.down, p.cut)
	}
	for _, key := range sortedOriginKeys(pl.installs) {
		inst := pl.installs[key]
		out += fmt.Sprintf("tree vpn=%s origin=%s hops=", key.vpn, key.origin)
		for i, h := range inst.hops {
			if i > 0 {
				out += ","
			}
			out += fmt.Sprintf("%d:%s->%s", h.peering, h.from, h.to)
		}
		out += fmt.Sprintf(" ilms=%d ftns=%d routes=%d\n",
			len(inst.ilms), len(inst.ftns), len(inst.routes))
	}
	return out
}

// StateDigest renders every member AS's control-plane digest plus the
// inter-AS selection state — the multi-provider half of the chaos
// determinism contract.
func (x *InterAS) StateDigest() string {
	out := ""
	for _, name := range x.order {
		out += "== as " + name + " ==\n" + x.ASes[name].StateDigest()
	}
	return out + "== interas ==\n" + x.SelectionDigest()
}
