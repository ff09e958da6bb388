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

// Route is a VRF forwarding entry: 24 bytes and no pointer. Its prefix is
// the trie node's, and a local route names its site by index into the
// VRF's site list (VRF.SiteName), not by a string of its own.
type Route struct {
	EgressPE topo.NodeID  // remote: BGP next hop's node
	NextHop  addr.IPv4    // remote: egress PE loopback
	VPNLabel packet.Label // remote

	// Site is a local route's attached site or inter-AS peer: an index into
	// the VRF's site list.
	Site uint32

	// Local routes deliver to an attached site; remote routes tunnel to an
	// egress PE with a VPN label.
	Local bool

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
	// names is the site list local routes index: one slot per attached
	// site, inter-AS peer a route names, or site an access link is bound
	// for. A slot that holds none of these is free, and the next new name
	// takes it.
	names []siteSlot
	// want counts the routes an RTIndex import pass is about to install.
	want int
}

// siteSlot is one name of a VRF's site list: the attached site of that
// name, if any, and the outbound access link toward its CE when one is
// bound.
type siteSlot struct {
	name   string
	site   *Site // attached
	routes int   // local routes naming the slot
	out    topo.LinkID
	bound  bool // out is set
}

// free reports whether nothing refers to the slot.
func (s *siteSlot) free() bool { return s.site == nil && s.routes == 0 && !s.bound }

// NewVRF creates an empty VRF.
func NewVRF(name string, pe topo.NodeID, rd addr.RouteDistinguisher, imp, exp []addr.RouteTarget) *VRF {
	return &VRF{
		Name: name, PE: pe, RD: rd,
		Import: imp, Export: exp,
		SLAClass: -1,
		table:    addr.NewTable[Route](),
	}
}

// slot returns the index of name in the site list, taking a free slot or
// appending one when the name is new. A VRF names a handful of sites, so
// the list is searched, not hashed.
func (v *VRF) slot(name string) uint32 {
	spare := -1
	for i := range v.names {
		switch s := &v.names[i]; {
		case s.free():
			if spare < 0 {
				spare = i
			}
		case s.name == name:
			return uint32(i)
		}
	}
	if spare < 0 {
		spare = len(v.names)
		v.names = append(v.names, siteSlot{})
	}
	v.names[spare] = siteSlot{name: name}
	return uint32(spare)
}

// SiteName returns the name of the site or peer a local route delivers to.
func (v *VRF) SiteName(rt Route) string {
	if !rt.Local {
		return ""
	}
	return v.names[rt.Site].name
}

// put installs rt for p, keeping the site list's route counts: the route it
// replaces, if local, stops naming its slot.
func (v *VRF) put(p addr.Prefix, rt Route) {
	cell, added := v.table.Upsert(p)
	if !added && cell.Local {
		v.names[cell.Site].routes--
	}
	if rt.Local {
		v.names[rt.Site].routes++
	}
	*cell = rt
}

// drop deletes p's route, keeping the site list's route counts.
func (v *VRF) drop(p addr.Prefix) {
	if rt, ok := v.table.Exact(p); ok {
		if rt.Local {
			v.names[rt.Site].routes--
		}
		v.table.Delete(p)
	}
}

// local returns a local route naming site.
func (v *VRF) local(site string, external bool) Route {
	return Route{Local: true, Site: v.slot(site), External: external}
}

// AttachSite connects a local site and installs its prefixes as local
// routes. It returns the routes the PE must export into BGP.
func (v *VRF) AttachSite(s *Site, labelFor func(addr.Prefix) packet.Label, loopback addr.IPv4) []bgp.VPNRoute {
	i := v.slot(s.Name)
	v.names[i].site = s
	exports := make([]bgp.VPNRoute, 0, len(s.Prefixes))
	for _, p := range s.Prefixes {
		v.put(p, Route{Local: true, Site: i})
		exports = append(exports, bgp.VPNRoute{
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
	i, ok := v.attached(name)
	if !ok {
		return nil
	}
	s := v.names[i].site
	v.names[i].site = nil
	var withdrawn []addr.VPNPrefix
	for _, p := range s.Prefixes {
		v.drop(p)
		withdrawn = append(withdrawn, addr.VPNPrefix{RD: v.RD, Prefix: p})
	}
	return withdrawn
}

// BindAccess records the outbound access link toward the named site's CE,
// the link a local route to that site hairpins out of.
func (v *VRF) BindAccess(site string, out topo.LinkID) {
	s := &v.names[v.slot(site)]
	s.out, s.bound = out, true
}

// UnbindAccess removes the named site's access link, if bound.
func (v *VRF) UnbindAccess(site string) {
	for i := range v.names {
		if s := &v.names[i]; !s.free() && s.name == site {
			s.out, s.bound = 0, false
			return
		}
	}
}

// AccessLink returns the access link bound for the site a local route
// names.
func (v *VRF) AccessLink(rt Route) (topo.LinkID, bool) {
	s := &v.names[rt.Site]
	return s.out, s.bound
}

// HasAccess reports whether an access link is bound for any site.
func (v *VRF) HasAccess() bool {
	for i := range v.names {
		if v.names[i].bound {
			return true
		}
	}
	return false
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

// ImportRoute installs one BGP-learned route if the import policy admits
// it: a wanted route target, and not the VRF's own export. Local routes are
// never overwritten by a remote one for the same prefix (attached-site
// routes are preferred, as in real PEs). It reports whether the route was
// installed. A PE's import pass goes through its RTIndex instead, which has
// already matched the route targets.
func (v *VRF) ImportRoute(r *bgp.VPNRoute) bool {
	return v.WantsRoute(r) && !v.ownExport(r) && v.install(r)
}

// ownExport reports whether r is this VRF's own export coming back.
func (v *VRF) ownExport(r *bgp.VPNRoute) bool {
	return r.OriginPE == v.PE && r.Prefix.RD == v.RD
}

// install puts the remote route r into the table unless a local route holds
// its prefix: one descent of the table. A remote route names no site, so
// it replaces only remote routes and the site list is not touched.
func (v *VRF) install(r *bgp.VPNRoute) bool {
	cell, added := v.table.Upsert(r.Prefix.Prefix)
	if !added && cell.Local {
		return false
	}
	*cell = Route{
		EgressPE: r.OriginPE,
		NextHop:  r.NextHop,
		VPNLabel: r.Label,
	}
	return true
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
	v.put(p, v.local(siteName, true))
	return true
}

// RemoveExternal deletes an inter-AS external route, but only when it is
// still owned by siteName — a later InstallExternal from a different
// boundary (multigraph re-selection during failover) must not be torn down
// by the old boundary's cleanup. It reports whether a route was removed.
func (v *VRF) RemoveExternal(p addr.Prefix, siteName string) bool {
	cur, ok := v.table.Exact(p)
	if !ok || !cur.External || v.SiteName(cur) != siteName {
		return false
	}
	v.drop(p)
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
	_, ok := v.attached(name)
	return ok
}

// attached returns the slot of the attached site of that name.
func (v *VRF) attached(name string) (int, bool) {
	for i := range v.names {
		if s := &v.names[i]; s.site != nil && s.name == name {
			return i, true
		}
	}
	return 0, false
}

// Sites returns attached site names, sorted.
func (v *VRF) Sites() []string {
	var out []string
	for i := range v.names {
		if v.names[i].site != nil {
			out = append(out, v.names[i].name)
		}
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
