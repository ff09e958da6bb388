package vpn

import (
	"cmp"
	"slices"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/snapshot"
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
	snapshot.KeyedPtrs(c, &v.sites, cmp.Compare[string], siteMin, func(s *Site) string { return s.Name }, siteState)
	// A route writes two names' worth of flags and varints after its prefix.
	addr.TableState(c, &v.table, addr.PrefixMin+6, func(c *snapshot.Codec, p addr.Prefix, rt *Route) {
		rt.Prefix = p
		c.Bool(&rt.Local)
		c.Interned(&rt.SiteName)
		snapshot.Int(c, &rt.EgressPE)
		snapshot.Uint(c, &rt.NextHop)
		snapshot.Uint(c, &rt.VPNLabel)
		c.Bool(&rt.External)
	})
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
