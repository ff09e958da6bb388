package vpn

import (
	"slices"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/bgp"
)

// RTIndex is one PE's import index: which of its VRFs import each route
// target. The PE's receive filter and its import pass look a route's targets
// up here, so each costs a lookup per target of a route, not a scan of every
// VRF's import list.
//
// The index is one slice of entries sorted by (target, VRF name): one
// target's importers are a run, found by binary search over integer keys.
// Its owner keeps it in step with the VRFs it holds (Add, Remove), and a
// VRF's Import list must not change while the VRF is indexed.
type RTIndex struct {
	ents []rtEntry
}

type rtEntry struct {
	key uint64 // rtKey of the target
	v   *VRF
}

// rtKey orders route targets by (Admin, Assigned).
func rtKey(rt addr.RouteTarget) uint64 { return uint64(rt.Admin)<<32 | uint64(rt.Assigned) }

// Add indexes v under each target it imports.
func (x *RTIndex) Add(v *VRF) {
	for _, rt := range v.Import {
		k := rtKey(rt)
		i, j := x.run(k)
		for i < j && x.ents[i].v.Name < v.Name {
			i++
		}
		if i < j && x.ents[i].v == v {
			continue // a target listed twice
		}
		x.ents = slices.Insert(x.ents, i, rtEntry{k, v})
	}
}

// Remove drops v from the index.
func (x *RTIndex) Remove(v *VRF) {
	x.ents = slices.DeleteFunc(x.ents, func(e rtEntry) bool { return e.v == v })
}

// run returns the bounds of the entries for the target with key k.
func (x *RTIndex) run(k uint64) (i, j int) {
	i, j = 0, len(x.ents)
	for i < j {
		h := int(uint(i+j) >> 1)
		if x.ents[h].key < k {
			i = h + 1
		} else {
			j = h
		}
	}
	for j = i; j < len(x.ents) && x.ents[j].key == k; j++ {
	}
	return i, j
}

// Wants reports whether some indexed VRF imports one of r's route targets:
// the PE's receive filter.
func (x *RTIndex) Wants(r *bgp.VPNRoute) bool {
	for _, rt := range r.RTs {
		if i, j := x.run(rtKey(rt)); i < j {
			return true
		}
	}
	return false
}

// Import hands each indexed VRF, in the order given, the routes its import
// policy admits (VRF.ImportRoute's rule): one pass over the routes, each
// looked up by its targets, rather than one pass per VRF. A route carrying
// two targets one VRF imports reaches it once. The VRFs' BGP-learned routes
// must have been purged first; each table is grown once, for what it is
// about to take.
func (x *RTIndex) Import(routes []bgp.VPNRoute) {
	x.each(routes, func(v *VRF, _ *bgp.VPNRoute) { v.want++ })
	for _, e := range x.ents {
		if v := e.v; v.want > 0 {
			v.table.Grow(v.want)
			v.want = 0
		}
	}
	x.each(routes, func(v *VRF, r *bgp.VPNRoute) { v.install(r) })
}

// each calls fn for every (VRF, route) pair the import policy admits,
// routes in the order given.
func (x *RTIndex) each(routes []bgp.VPNRoute, fn func(*VRF, *bgp.VPNRoute)) {
	for n := range routes {
		r := &routes[n]
		for k, rt := range r.RTs {
			i, j := x.run(rtKey(rt))
			for _, e := range x.ents[i:j] {
				if !e.v.ownExport(r) && !importsAny(e.v, r.RTs[:k]) {
					fn(e.v, r)
				}
			}
		}
	}
}

// importsAny reports whether v imports one of rts.
func importsAny(v *VRF, rts []addr.RouteTarget) bool {
	for _, rt := range rts {
		if slices.Contains(v.Import, rt) {
			return true
		}
	}
	return false
}
