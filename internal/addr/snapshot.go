package addr

import (
	"cmp"

	"mplsvpn/internal/snapshot"
)

// State walks shared by every package that checkpoints addressed state.
// Prefixes and route distinguishers are small fixed tuples, so they encode
// as bare varints with no framing. Each *Min is the fewest bytes its walk
// writes (every varint takes at least one), for the callers that count
// these as sequence elements.
const (
	PrefixMin    = 2
	RTMin        = 2
	VPNPrefixMin = 2 + PrefixMin
)

// PrefixState walks a prefix. A loaded length no prefix can have fails the
// load and leaves the zero prefix.
func PrefixState(c *snapshot.Codec, p *Prefix) {
	snapshot.Uint(c, &p.Addr)
	snapshot.Uint(c, &p.Len)
	if c.Loading() && p.Len > 32 {
		c.Corrupt("prefix length %d", p.Len)
		*p = Prefix{}
	}
}

// RDState walks a route distinguisher.
func RDState(c *snapshot.Codec, rd *RouteDistinguisher) {
	snapshot.Uint(c, &rd.Admin)
	snapshot.Uint(c, &rd.Assigned)
}

// RTState walks a route target.
func RTState(c *snapshot.Codec, rt *RouteTarget) {
	snapshot.Uint(c, &rt.Admin)
	snapshot.Uint(c, &rt.Assigned)
}

// VPNPrefixState walks a VPN-qualified prefix.
func VPNPrefixState(c *snapshot.Codec, vp *VPNPrefix) {
	RDState(c, &vp.RD)
	PrefixState(c, &vp.Prefix)
}

// CompareVPNPrefix orders VPN prefixes as VPNPrefix.Less does: the key
// order of every checkpointed map keyed by one.
func CompareVPNPrefix(a, b VPNPrefix) int {
	if a.RD.Admin != b.RD.Admin {
		return cmp.Compare(a.RD.Admin, b.RD.Admin)
	}
	if a.RD.Assigned != b.RD.Assigned {
		return cmp.Compare(a.RD.Assigned, b.RD.Assigned)
	}
	return ComparePrefix(a.Prefix, b.Prefix)
}

// ComparePrefix orders prefixes by address, then length.
func ComparePrefix(a, b Prefix) int {
	if a.Addr != b.Addr {
		return cmp.Compare(a.Addr, b.Addr)
	}
	return cmp.Compare(a.Len, b.Len)
}

// TableState walks a prefix table: the entry count, then each prefix and
// its value in Walk's order, which the set of prefixes alone decides. A load
// replaces *t with a new table, its slices made once for the count the
// checkpoint declares — which, like every count, the bytes that remain have
// vouched for — and filled by inserting in the order found. min is one
// entry's minimum encoding, PrefixMin plus the value's; val is handed the
// entry's prefix for values that repeat it.
func TableState[V any](c *snapshot.Codec, t **Table[V], min int, val func(*snapshot.Codec, Prefix, *V)) {
	// One cell each for the prefix and the value in flight: val is a func
	// value, so they escape, and one allocation per table beats one per
	// entry.
	var p Prefix
	var v V
	if !c.Loading() {
		c.Len((*t).Len(), min)
		(*t).Walk(func(wp Prefix, wv V) bool {
			p, v = wp, wv
			PrefixState(c, &p)
			val(c, p, &v)
			return true
		})
		return
	}
	n := c.Len(0, min)
	*t = newTable[V](2 * n)
	for ; n > 0; n-- {
		var zero V
		v = zero
		PrefixState(c, &p)
		val(c, p, &v)
		if c.Err() != nil {
			return
		}
		(*t).Insert(p, v)
	}
}
