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
	attachedState(c, s)
}

// attachedState walks a site after its name.
func attachedState(c *snapshot.Codec, s *Site) {
	c.Str(&s.VPN)
	snapshot.Int(c, &s.PE)
	snapshot.Slice(c, &s.Prefixes, addr.PrefixMin, addr.PrefixState)
}

// slotMin is the fewest bytes slotState writes: an empty name, two flags
// and the access link.
const slotMin = 4

// slotState walks one slot of a VRF's site list: its name, the site
// attached under it, and its access link. How many routes name the slot is
// counted again as a load reads them.
func slotState(c *snapshot.Codec, s *siteSlot) {
	c.Str(&s.name)
	if c.Has(s.site != nil) {
		if c.Loading() {
			s.site = &Site{Name: s.name}
		}
		attachedState(c, s.site)
	}
	c.Bool(&s.bound)
	snapshot.Int(c, &s.out)
}

// VRFMin is the fewest bytes VRFState writes: an empty name, the PE, the RD,
// the SLA class, and four empty collections.
const VRFMin = 9

// VRFState walks a whole VRF: identity, policy, the site list, and every
// forwarding entry, a local route naming its site by index into the list.
// VRFs are created by provisioning — which can run mid-simulation — so a
// load fills a new VRF from the checkpoint rather than overlaying a
// scenario-built one.
func VRFState(c *snapshot.Codec, v *VRF) {
	c.Str(&v.Name)
	snapshot.Int(c, &v.PE)
	addr.RDState(c, &v.RD)
	snapshot.Slice(c, &v.Import, addr.RTMin, addr.RTState)
	snapshot.Slice(c, &v.Export, addr.RTMin, addr.RTState)
	snapshot.Int(c, &v.SLAClass)
	snapshot.Slice(c, &v.names, slotMin, slotState)
	// A route writes two flags and four varints after its prefix.
	addr.TableState(c, &v.table, addr.PrefixMin+6, func(c *snapshot.Codec, _ addr.Prefix, rt *Route) {
		c.Bool(&rt.Local)
		snapshot.Uint(c, &rt.Site)
		snapshot.Int(c, &rt.EgressPE)
		snapshot.Uint(c, &rt.NextHop)
		snapshot.Uint(c, &rt.VPNLabel)
		c.Bool(&rt.External)
		switch {
		case !c.Loaded() || !rt.Local:
		case int(rt.Site) >= len(v.names):
			c.Corrupt("local route names site %d of %d", rt.Site, len(v.names))
		default:
			v.names[rt.Site].routes++
		}
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
