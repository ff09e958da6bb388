package core

import (
	"fmt"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/bgp"
	"mplsvpn/internal/mpls"
	"mplsvpn/internal/netsim"
	"mplsvpn/internal/ospf"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
	"mplsvpn/internal/vpn"
)

// InterAS hosts several provider backbones on one shared simulation so a
// VPN can span carriers — the paper's §5: "This cross-network SLA
// capability allows the building of VPNs using multiple carriers as
// necessary, an option not available with most frame relay offerings."
//
// Interconnection uses RFC 2547's inter-AS "option A": the two ASBR PEs
// connect with a per-VPN access link and each treats the other as a CE
// site. Labels never cross the boundary; each AS runs its own label plane,
// and each ASBR re-originates the foreign routes into its own MP-BGP with
// itself as egress.
type InterAS struct {
	E   *sim.Engine
	G   *topo.Graph
	Net *netsim.Network
	// ASes by name.
	ASes map[string]*Backbone

	order         []string
	interconnects []interconnect

	// peer is the generic RFC 4364 option A/B/C peering plane (interpeer.go);
	// lazily built by plane().
	peer *interASPlane

	// checkpointLen is the length of the last checkpoint written or restored
	// (see Backbone.checkpointLen).
	checkpointLen int
}

type interconnect struct {
	vpn      string
	asA, asB string
	peA, peB string
	linkAB   topo.LinkID // peA -> peB
	linkBA   topo.LinkID // peB -> peA
}

// NewInterAS creates a shared simulation hosting one backbone per config.
// Node names must be unique across ASes (prefix them, e.g. "as1-PE1").
func NewInterAS(seed uint64, names []string, cfgs []Config) *InterAS {
	if len(names) != len(cfgs) {
		panic("core: names and configs must pair up")
	}
	x := &InterAS{
		E:    sim.NewEngine(seed),
		G:    topo.New(),
		ASes: make(map[string]*Backbone),
	}
	x.Net = netsim.New(x.E, x.G)
	x.Net.OnDeliver = x.dispatch
	for i, name := range names {
		b := newBackboneOn(cfgs[i], x.E, x.G, x.Net)
		// Distinct domains keep each AS's pending control timers
		// attributable (and re-armable) after a checkpoint of the shared
		// engine; domain 0 stays reserved for standalone backbones.
		b.domain = uint16(i + 1)
		// A wholesale label-plane rebuild inside any member AS invalidates
		// every boundary binding derived from its tables; re-derive them
		// (and complete any pending AS-level restore).
		name := name
		b.onReconverged = append(b.onReconverged, func() { x.asReconverged(name) })
		x.ASes[name] = b
		x.order = append(x.order, name)
	}
	return x
}

// EnableSharding partitions the shared multi-AS topology and switches the
// shared engine to the parallel backend. The graph, engine, and network are
// one simulation, so this is called once for the whole InterAS — not per
// member. Call it after every AS is built and every peering added, before
// traffic starts.
func (x *InterAS) EnableSharding(opts ShardingOptions) (*topo.PartitionResult, error) {
	return x.ASes[x.order[0]].EnableSharding(opts)
}

// AS returns the named backbone.
func (x *InterAS) AS(name string) *Backbone {
	b, ok := x.ASes[name]
	if !ok {
		panic(fmt.Sprintf("core: unknown AS %q", name))
	}
	return b
}

// dispatch fans a delivery out to every member backbone; each reacts only
// to its own sites and flows.
func (x *InterAS) dispatch(at topo.NodeID, p *packet.Packet) {
	for _, name := range x.order {
		x.ASes[name].onDeliver(at, p)
	}
}

// ConnectVPN interconnects one VPN across two ASes at the named ASBR PEs
// (option A). Both ASes must have converged their VPNs first; the exchange
// snapshots each side's VRF routes into the other. Re-invoke (or call
// RefreshInterAS) after membership changes.
func (x *InterAS) ConnectVPN(vpnName, asA, peA, asB, peB string, bandwidth float64, delay sim.Time) error {
	a := x.AS(asA)
	b := x.AS(asB)
	if _, ok := a.vpns[vpnName]; !ok {
		return fmt.Errorf("core: AS %s has no VPN %q", asA, vpnName)
	}
	if _, ok := b.vpns[vpnName]; !ok {
		return fmt.Errorf("core: AS %s has no VPN %q", asB, vpnName)
	}
	if bandwidth == 0 {
		bandwidth = 100e6
	}
	if delay == 0 {
		delay = sim.Millisecond
	}
	na, nb := a.mustNode(peA), b.mustNode(peB)
	ab, ba := x.G.AddDuplexLink(na, nb, bandwidth, delay, 1)
	x.Net.SetScheduler(ab, a.newScheduler())
	x.Net.SetScheduler(ba, b.newScheduler())

	ic := interconnect{vpn: vpnName, asA: asA, asB: asB, peA: peA, peB: peB, linkAB: ab, linkBA: ba}
	x.interconnects = append(x.interconnects, ic)

	x.bindSide(a, vpnName, peA, ba, ab, asB)
	x.bindSide(b, vpnName, peB, ab, ba, asA)
	x.exchange(a, b, vpnName, asA, b.mustNode(peB), ab, ba)
	x.exchange(b, a, vpnName, asB, a.mustNode(peA), ba, ab)
	return nil
}

// bindSide makes the inter-AS link look like a CE attachment of vpnName at
// the local ASBR.
func (x *InterAS) bindSide(local *Backbone, vpnName, pe string, inLink, outLink topo.LinkID, peerAS string) {
	peID := local.mustNode(pe)
	r := local.routers[peID]
	if _, ok := r.VRFs[vpnName]; !ok {
		cfg := local.vpns[vpnName]
		r.AddVRF(vpn.NewVRF(vpnName, peID, cfg.RD, cfg.Imports, cfg.Exports))
	}
	r.BindAccess(inLink, vpnName)
	r.BindSiteAccess(vpnName, externalSiteName(peerAS), outLink)
}

// exchange copies every non-external prefix of vpnName known in `from`
// into the receiving ASBR's VRF as external routes over the inter-AS link,
// re-originates them into the receiver's MP-BGP (ASBR as egress, VPN label
// popping onto the inter-AS link), and reconverges the receiver.
func (x *InterAS) exchange(from, to *Backbone, vpnName, fromAS string, asbr topo.NodeID, inLinkFromPeer, outLinkToPeer topo.LinkID) {
	// Split horizon: export only prefixes of sites *attached within* the
	// exporting AS (Local && !External). BGP-learned copies and external
	// routes from other interconnects are never re-exported, so a prefix
	// can never be reflected back to its home AS (which would loop traffic
	// across the boundary until TTL death).
	seen := map[addr.Prefix]bool{}
	var prefixes []addr.Prefix
	for _, peID := range from.peNodes {
		if v, ok := from.routers[peID].VRFs[vpnName]; ok {
			v.Walk(func(p addr.Prefix, rt vpn.Route) bool {
				if rt.Local && !rt.External && !seen[p] {
					seen[p] = true
					prefixes = append(prefixes, p)
				}
				return true
			})
		}
	}

	r := to.routers[asbr]
	v := r.VRFs[vpnName]
	cfg := to.vpns[vpnName]
	sp, haveBGP := to.BGP.Speaker(asbr)
	alloc := to.allocs[asbr]
	for _, p := range prefixes {
		if !v.InstallExternal(p, externalSiteName(fromAS)) {
			continue // the receiver already has a better (internal) route
		}
		if !haveBGP {
			continue
		}
		label := alloc.Alloc()
		r.LFIB.BindILM(label, mpls.NHLFE{Op: mpls.OpPop, OutLink: outLinkToPeer})
		sp.Originate(&bgp.VPNRoute{
			Prefix:    addr.VPNPrefix{RD: cfg.RD, Prefix: p},
			NextHop:   ospf.Loopback(asbr),
			Label:     label,
			RTs:       cfg.Exports,
			LocalPref: 100,
			ASPathLen: 1, // one AS hop: internal routes win ties
			OriginPE:  asbr,
		})
	}
	if haveBGP {
		to.ConvergeVPNs()
	}
	_ = inLinkFromPeer
}

// RefreshInterAS re-runs the route exchange over every interconnect after
// membership changes (both ASes should have re-converged first).
func (x *InterAS) RefreshInterAS() {
	for _, ic := range x.interconnects {
		a, b := x.AS(ic.asA), x.AS(ic.asB)
		x.exchange(a, b, ic.vpn, ic.asA, b.mustNode(ic.peB), ic.linkAB, ic.linkBA)
		x.exchange(b, a, ic.vpn, ic.asB, a.mustNode(ic.peA), ic.linkBA, ic.linkAB)
	}
}

// FlowBetween creates a measured cross-carrier flow: injected at the
// origin AS's site CE, addressed to a site in another AS, with statistics
// recorded like Backbone.FlowBetween.
func (x *InterAS) FlowBetween(name, fromAS, fromSite, toAS, toSite string, dstPort uint16) (*trafgen.Flow, error) {
	a := x.AS(fromAS)
	b := x.AS(toAS)
	from, ok := a.sites[fromSite]
	if !ok {
		return nil, fmt.Errorf("core: unknown site %q in AS %s", fromSite, fromAS)
	}
	to, ok := b.sites[toSite]
	if !ok {
		return nil, fmt.Errorf("core: unknown site %q in AS %s", toSite, toAS)
	}
	f := trafgen.NewFlow(name, from.CE,
		firstHost(from.Spec.Prefixes[0]), firstHost(to.Spec.Prefixes[0]), dstPort)
	f.VPN = from.Spec.VPN
	a.registerFlow(f)
	return f, nil
}

func externalSiteName(peerAS string) string { return "interas:" + peerAS }
