// Package vpn implements the VPN layer of RFC 2547 on top of BGP and MPLS:
// VRFs (per-VPN routing and forwarding tables) with import/export route
// targets, site attachment, and the membership discovery service of the
// paper's §4.1 ("members can join and leave the service network and those
// changes need to be known by all remaining members ... discovery within a
// VPN is kept separate from discovery in another VPN").
package vpn

import (
	"fmt"
	"sort"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/bgp"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/topo"
)

// Site is one customer site: a CE attachment with the prefixes reachable
// behind it.
type Site struct {
	Name     string
	VPN      string
	PE       topo.NodeID // provider edge it attaches to
	Prefixes []addr.Prefix
}

// Route is a VRF forwarding entry.
type Route struct {
	Prefix addr.Prefix
	// Local routes deliver to an attached site; remote routes tunnel to an
	// egress PE with a VPN label.
	Local    bool
	SiteName string // local: which attached site

	EgressPE topo.NodeID // remote: BGP next hop's node
	NextHop  addr.IPv4   // remote: egress PE loopback
	VPNLabel packet.Label

	// External marks a route learned across an inter-provider boundary
	// (RFC 2547 §10 option A: the neighbouring ASBR looks like a CE).
	// External routes are never re-exported across another boundary,
	// preventing inter-AS routing loops.
	External bool
}

// VRF is a per-VPN routing and forwarding table at one PE. "Identifiers
// allow a single routing system to support multiple VPNs whose internal
// address spaces overlap with each other" (§4) — the identifier is the RD,
// and the VRF is where the per-VPN address space lives.
type VRF struct {
	Name   string // VPN name
	PE     topo.NodeID
	RD     addr.RouteDistinguisher
	Import []addr.RouteTarget
	Export []addr.RouteTarget

	// SLAClass, when >= 0, assigns a QoS level to the entire VPN: every
	// packet entering this VRF is re-marked to that forwarding class at
	// the provider edge, regardless of the customer's own DSCP. This is
	// §2.2's "simply assign a QoS level to an entire VPN, and this is how
	// frame relay or ATM networks would work", without the per-flow
	// billing problem the paper worries about.
	SLAClass int

	table *addr.Table[Route]
	sites map[string]*Site
}

// NewVRF creates an empty VRF.
func NewVRF(name string, pe topo.NodeID, rd addr.RouteDistinguisher, imp, exp []addr.RouteTarget) *VRF {
	return &VRF{
		Name: name, PE: pe, RD: rd,
		Import: imp, Export: exp,
		SLAClass: -1,
		table:    addr.NewTable[Route](),
		sites:    make(map[string]*Site),
	}
}

// AttachSite connects a local site and installs its prefixes as local
// routes. It returns the routes the PE must export into BGP.
func (v *VRF) AttachSite(s *Site, labelFor func(addr.Prefix) packet.Label, loopback addr.IPv4) []*bgp.VPNRoute {
	v.sites[s.Name] = s
	var exports []*bgp.VPNRoute
	for _, p := range s.Prefixes {
		v.table.Insert(p, Route{Prefix: p, Local: true, SiteName: s.Name})
		exports = append(exports, &bgp.VPNRoute{
			Prefix:    addr.VPNPrefix{RD: v.RD, Prefix: p},
			NextHop:   loopback,
			Label:     labelFor(p),
			RTs:       v.Export,
			LocalPref: 100,
			OriginPE:  v.PE,
		})
	}
	return exports
}

// DetachSite removes a site and its local routes, returning the VPN-IPv4
// prefixes that must be withdrawn from BGP.
func (v *VRF) DetachSite(name string) []addr.VPNPrefix {
	s, ok := v.sites[name]
	if !ok {
		return nil
	}
	delete(v.sites, name)
	var withdrawn []addr.VPNPrefix
	for _, p := range s.Prefixes {
		v.table.Delete(p)
		withdrawn = append(withdrawn, addr.VPNPrefix{RD: v.RD, Prefix: p})
	}
	return withdrawn
}

// WantsRoute reports whether the VRF imports a BGP route (RT intersection).
func (v *VRF) WantsRoute(r *bgp.VPNRoute) bool {
	for _, rt := range v.Import {
		if r.HasRT(rt) {
			return true
		}
	}
	return false
}

// ImportRemote installs BGP-learned routes that match the import policy.
// Local routes are never overwritten by remote ones for the same prefix
// (attached-site routes are preferred, as in real PEs). It returns how
// many routes were installed.
func (v *VRF) ImportRemote(routes []*bgp.VPNRoute) int {
	want := 0
	for _, r := range routes {
		if v.imports(r) {
			want++
		}
	}
	v.table.Grow(want)
	n := 0
	for _, r := range routes {
		if !v.imports(r) {
			continue
		}
		if cur, ok := v.table.Exact(r.Prefix.Prefix); ok && cur.Local {
			continue
		}
		v.table.Insert(r.Prefix.Prefix, Route{
			Prefix:   r.Prefix.Prefix,
			EgressPE: r.OriginPE,
			NextHop:  r.NextHop,
			VPNLabel: r.Label,
		})
		n++
	}
	return n
}

// imports reports whether r is a remote route the import policy admits: a
// wanted route target, and not the VRF's own export.
func (v *VRF) imports(r *bgp.VPNRoute) bool {
	return v.WantsRoute(r) && !(r.OriginPE == v.PE && r.Prefix.RD == v.RD)
}

// Lookup forwards within the VPN's address space.
func (v *VRF) Lookup(ip addr.IPv4) (Route, bool) { return v.table.Lookup(ip) }

// PurgeRemote removes every BGP-learned route (not local attachments, not
// inter-AS external routes) so a re-import after convergence cannot leave
// withdrawn destinations behind as stale label state.
func (v *VRF) PurgeRemote() int {
	var victims []addr.Prefix
	v.table.Walk(func(p addr.Prefix, rt Route) bool {
		if !rt.Local && !rt.External {
			victims = append(victims, p)
		}
		return true
	})
	for _, p := range victims {
		v.table.Delete(p)
	}
	return len(victims)
}

// InstallExternal installs a route learned from a neighbouring provider's
// ASBR over an inter-AS access link (option A: the peer looks like a CE
// site named siteName). Existing non-external routes are never displaced.
// It reports whether the route was installed.
func (v *VRF) InstallExternal(p addr.Prefix, siteName string) bool {
	if cur, ok := v.table.Exact(p); ok && !cur.External {
		return false
	}
	v.table.Insert(p, Route{Prefix: p, Local: true, SiteName: siteName, External: true})
	return true
}

// RemoveExternal deletes an inter-AS external route, but only when it is
// still owned by siteName — a later InstallExternal from a different
// boundary (multigraph re-selection during failover) must not be torn down
// by the old boundary's cleanup. It reports whether a route was removed.
func (v *VRF) RemoveExternal(p addr.Prefix, siteName string) bool {
	cur, ok := v.table.Exact(p)
	if !ok || !cur.External || cur.SiteName != siteName {
		return false
	}
	v.table.Delete(p)
	return true
}

// Walk visits every route in the VRF.
func (v *VRF) Walk(fn func(addr.Prefix, Route) bool) {
	v.table.Walk(fn)
}

// Size returns the number of installed routes (E1 state metric).
func (v *VRF) Size() int { return v.table.Len() }

// HasSite reports whether the named site is attached to the VRF.
func (v *VRF) HasSite(name string) bool {
	_, ok := v.sites[name]
	return ok
}

// Sites returns attached site names, sorted.
func (v *VRF) Sites() []string {
	out := make([]string, 0, len(v.sites))
	for n := range v.sites {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Membership discovery (§4.1)

// Event announces a membership change within one VPN.
type Event struct {
	VPN    string
	Site   Site
	Joined bool // false = left
}

// Registry is the provider's membership discovery service. Subscriptions
// are per VPN, so "the discovery of membership in one VPN must not allow
// members of other VPNs to be discovered" holds by construction — the
// registry will not deliver VPN A's events to a VPN B subscriber, and the
// isolation property test in the core package verifies it end to end.
type Registry struct {
	members map[string]map[string]Site // vpn -> site name -> site
	subs    map[string][]func(Event)   // vpn -> subscribers
	History map[string]int             // vpn -> events delivered
}

// NewRegistry creates an empty discovery service.
func NewRegistry() *Registry {
	return &Registry{
		members: make(map[string]map[string]Site),
		subs:    make(map[string][]func(Event)),
		History: make(map[string]int),
	}
}

// Subscribe registers a callback for membership changes in one VPN. The
// current membership is replayed immediately (late joiners need to find
// out "what other members there are in the VPN").
func (r *Registry) Subscribe(vpn string, fn func(Event)) {
	r.subs[vpn] = append(r.subs[vpn], fn)
	for _, s := range r.membersSorted(vpn) {
		fn(Event{VPN: vpn, Site: s, Joined: true})
		r.History[vpn]++
	}
}

// Join announces a site joining its VPN.
func (r *Registry) Join(s Site) error {
	if s.VPN == "" || s.Name == "" {
		return fmt.Errorf("vpn: site needs both a name and a VPN")
	}
	m := r.members[s.VPN]
	if m == nil {
		m = make(map[string]Site)
		r.members[s.VPN] = m
	}
	if _, dup := m[s.Name]; dup {
		return fmt.Errorf("vpn: site %q already in VPN %q", s.Name, s.VPN)
	}
	m[s.Name] = s
	r.publish(Event{VPN: s.VPN, Site: s, Joined: true})
	return nil
}

// Leave announces a site leaving its VPN.
func (r *Registry) Leave(vpn, site string) error {
	m := r.members[vpn]
	s, ok := m[site]
	if !ok {
		return fmt.Errorf("vpn: site %q not in VPN %q", site, vpn)
	}
	delete(m, site)
	r.publish(Event{VPN: vpn, Site: s, Joined: false})
	return nil
}

func (r *Registry) publish(e Event) {
	for _, fn := range r.subs[e.VPN] {
		fn(e)
		r.History[e.VPN]++
	}
}

// Members returns the current membership of a VPN, sorted by site name.
func (r *Registry) Members(vpn string) []Site { return r.membersSorted(vpn) }

func (r *Registry) membersSorted(vpn string) []Site {
	m := r.members[vpn]
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Site, 0, len(names))
	for _, n := range names {
		out = append(out, m[n])
	}
	return out
}
