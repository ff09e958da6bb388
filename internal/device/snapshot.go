package device

import (
	"cmp"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/mpls"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/vpn"
)

func compareTEKey(a, b TEKey) int {
	if a.EgressPE != b.EgressPE {
		return cmp.Compare(a.EgressPE, b.EgressPE)
	}
	if a.Class != b.Class {
		return cmp.Compare(a.Class, b.Class)
	}
	return cmp.Compare(a.VRF, b.VRF)
}

// StateMin is the fewest bytes State writes: eleven counters, two flags and
// six empty tables.
const StateMin = 19

// State walks the router's forwarding state: label plane, IP tables, VRFs
// (their sites' access links included), inbound access bindings, TE
// steering, classifier dynamics, and the pipeline counters. Identity (node,
// kind, loopback) and feature switches (MapDSCPToEXP) are scenario
// configuration, and a load needs the scenario rebuild of the same node
// (same kind and classifier shape). IPSec gateway state is not checkpointed
// — the overlay baseline runs uninterrupted in the soak.
func (r *Router) State(c *snapshot.Codec) {
	r.LFIB.State(c)
	r.FTN.State(c)

	addr.TableState(c, &r.IPTable, addr.PrefixMin+1, func(c *snapshot.Codec, _ addr.Prefix, l *topo.LinkID) { snapshot.Int(c, l) })
	if c.Has(r.LocalPrefixes != nil) {
		addr.TableState(c, &r.LocalPrefixes, addr.PrefixMin+1, func(c *snapshot.Codec, _ addr.Prefix, v *bool) { c.Bool(v) })
	} else {
		r.LocalPrefixes = nil
	}

	snapshot.KeyedPtrs(c, &r.VRFs, cmp.Compare[string], vpn.VRFMin, func(v *vpn.VRF) string { return v.Name }, vpn.VRFState)
	if c.Loading() { // even a failed load: the index follows whatever VRFs it left
		r.rts = vpn.RTIndex{}
		for _, v := range r.VRFs {
			r.rts.Add(v)
		}
	}
	snapshot.Map(c, &r.accessVRF, cmp.Compare[topo.LinkID], 2, snapshot.Int[topo.LinkID],
		func(c *snapshot.Codec, b *accessBinding) {
			c.Str(&b.name)
			if c.Loading() {
				b.vrf = r.VRFs[b.name]
			}
		})
	if c.Loading() { // a CE or P holds no PE map, loaded or built
		if len(r.VRFs) == 0 {
			r.VRFs = nil
		}
		if len(r.accessVRF) == 0 {
			r.accessVRF = nil
		}
	}

	snapshot.Map(c, &r.TE, compareTEKey, 3+mpls.NHLFEMin, func(c *snapshot.Codec, k *TEKey) {
		snapshot.Int(c, &k.EgressPE)
		snapshot.Int(c, &k.Class)
		c.Str(&k.VRF)
	}, mpls.NHLFEState)
	if c.Loaded() {
		te := r.TE
		r.TE, r.teIdx = nil, nil
		for k, e := range te {
			if k.Class >= qos.NumClasses {
				c.Corrupt("TE steering entry for class %d", k.Class)
				return
			}
			r.SetTE(k, e)
		}
	}

	if c.Same(r.Classifier != nil, "classifier") {
		r.Classifier.State(c)
	}

	snapshot.Int(c, &r.Delivered)
	snapshot.Int(c, &r.DroppedTTL)
	snapshot.Int(c, &r.DroppedNoLabel)
	snapshot.Int(c, &r.DroppedNoRoute)
	snapshot.Int(c, &r.DroppedPolicer)
	snapshot.Int(c, &r.IPLookups)
	snapshot.Int(c, &r.LabelLookups)
	snapshot.Int(c, &r.EXPMapped)
}
