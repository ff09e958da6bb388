package vpn

import (
	"cmp"
	"slices"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

// siteMin is the fewest bytes siteState writes: two empty names, the PE,
// and an empty prefix list.
const siteMin = 4

func siteState(c *snapshot.Codec, s *Site) {
	c.Str(&s.Name)
	c.Str(&s.VPN)
	snapshot.Int(c, &s.PE)
	snapshot.Slice(c, &s.Prefixes, addr.PrefixMin, addr.PrefixState)
}

// VRFMin is the fewest bytes VRFState writes: an empty name, the PE, the RD,
// the SLA class, and four empty collections.
const VRFMin = 9

// VRFState walks a whole VRF: identity, policy, attached sites, and every
// forwarding entry. VRFs are created by provisioning — which can run
// mid-simulation — so a load fills a new VRF from the checkpoint rather
// than overlaying a scenario-built one.
func VRFState(c *snapshot.Codec, v *VRF) {
	c.Str(&v.Name)
	snapshot.Int(c, &v.PE)
	addr.RDState(c, &v.RD)
	snapshot.Slice(c, &v.Import, addr.RTMin, addr.RTState)
	snapshot.Slice(c, &v.Export, addr.RTMin, addr.RTState)
	snapshot.Int(c, &v.SLAClass)
	v.sitesState(c)
	// A route writes two names' worth of flags and varints after its
	// prefix. The checkpoint names its site, not the index, so a load
	// rebuilds the site list from the names it finds.
	addr.TableState(c, &v.table, addr.PrefixMin+6, func(c *snapshot.Codec, _ addr.Prefix, rt *Route) {
		c.Bool(&rt.Local)
		var name string
		if !c.Loading() {
			name = v.SiteName(*rt)
		}
		c.Interned(&name)
		if c.Loading() {
			switch {
			case rt.Local:
				rt.Site = v.slot(name)
				v.names[rt.Site].routes++
			case name != "":
				c.Corrupt("remote route names site %q", name)
			}
		}
		snapshot.Int(c, &rt.EgressPE)
		snapshot.Uint(c, &rt.NextHop)
		snapshot.Uint(c, &rt.VPNLabel)
		c.Bool(&rt.External)
	})
}

// sitesState walks the attached sites as a map from name to site: the
// count, then each site ascending by name. A load starts the site list
// afresh with them.
func (v *VRF) sitesState(c *snapshot.Codec) {
	if c.Loading() {
		v.names = nil
		for n := c.Len(0, siteMin); n > 0 && c.Err() == nil; n-- {
			s := new(Site)
			siteState(c, s)
			if c.Err() == nil {
				v.names[v.slot(s.Name)].site = s
			}
		}
		return
	}
	at := v.sorted(func(s *siteSlot) bool { return s.site != nil })
	c.Len(len(at), siteMin)
	for _, i := range at {
		siteState(c, v.names[i].site)
	}
}

// sorted returns the indices of the slots keep admits, ascending by name.
func (v *VRF) sorted(keep func(*siteSlot) bool) []int {
	var at []int
	for i := range v.names {
		if keep(&v.names[i]) {
			at = append(at, i)
		}
	}
	slices.SortFunc(at, func(a, b int) int { return cmp.Compare(v.names[a].name, v.names[b].name) })
	return at
}

// AccessState walks the VRF's access bindings as a map from site name to
// link: the count, then each binding ascending by site. A load binds each
// one it finds in addition to those the VRF holds.
func (v *VRF) AccessState(c *snapshot.Codec) {
	if c.Loading() {
		for n := c.Len(0, 2); n > 0 && c.Err() == nil; n-- {
			var site string
			var out topo.LinkID
			c.Str(&site)
			snapshot.Int(c, &out)
			if c.Err() == nil {
				v.BindAccess(site, out)
			}
		}
		return
	}
	at := v.sorted(func(s *siteSlot) bool { return s.bound })
	c.Len(len(at), 2)
	for _, i := range at {
		c.Str(&v.names[i].name)
		snapshot.Int(c, &v.names[i].out)
	}
}

// membersState walks one VPN's member sites, ascending by name, each behind
// a true flag and the list closed by a false one.
func membersState(c *snapshot.Codec, m *map[string]Site) {
	names := make([]string, 0, len(*m))
	for n := range *m {
		names = append(names, n)
	}
	slices.Sort(names)
	if c.Loading() {
		*m = make(map[string]Site)
	}
	for i := 0; c.Has(i < len(names)); i++ {
		var s Site
		if !c.Loading() {
			s = (*m)[names[i]]
		}
		siteState(c, &s)
		if c.Loading() {
			(*m)[s.Name] = s
		}
	}
}

// State walks the discovery service's membership and delivery counters.
// Subscriber callbacks are live wiring re-established by the scenario
// rebuild; a load replaces the data they observed.
func (r *Registry) State(c *snapshot.Codec) {
	snapshot.Map(c, &r.members, cmp.Compare[string], 2, (*snapshot.Codec).Str, membersState)
	snapshot.Map(c, &r.History, cmp.Compare[string], 2, (*snapshot.Codec).Str, snapshot.Int[int])
}
