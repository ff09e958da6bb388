package core

import (
	"fmt"

	"mplsvpn/internal/netsim"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

// InterAS hosts several provider backbones on one shared simulation so a
// VPN can span carriers — the paper's §5: "This cross-network SLA
// capability allows the building of VPNs using multiple carriers as
// necessary, an option not available with most frame relay offerings."
//
// Carriers interconnect through the RFC 4364 peering plane (interpeer.go):
// AddPeering wires two ASBRs with option A, B or C, and ReconcilePeerings
// provisions every VPN's boundary state over the selected AS paths. Each AS
// runs its own IGP, label plane and MP-BGP.
type InterAS struct {
	E   *sim.Engine
	G   *topo.Graph
	Net *netsim.Network
	// ASes by name.
	ASes map[string]*Backbone

	order []string

	// peer is the RFC 4364 option A/B/C peering plane (interpeer.go); lazily
	// built by plane().
	peer *interASPlane

	// checkpointLen is the length of the last checkpoint written or restored
	// (see Backbone.checkpointLen).
	checkpointLen int
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
		// A site added or removed after the first ReconcilePeerings changes
		// what this AS exports for its VPN; the next reconcile re-provisions
		// that export set.
		b.onExportsChanged = append(b.onExportsChanged, func(vpn string) { x.exportsChanged(vpn, name) })
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

// AS returns the named backbone. It is the must-style accessor for names
// the caller built the simulation with, and panics on any other; code
// handling a name from input looks it up in ASes, as AddPeering and
// SetASTransit do.
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
