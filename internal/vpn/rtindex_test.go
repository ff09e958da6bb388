package vpn

import (
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/bgp"
)

// A route carrying two targets one VRF imports is handed to that VRF once,
// and to every other importer of either target once; the filter wants what
// some VRF imports, and a removed VRF is forgotten.
func TestRTIndexHandsEachRouteOnce(t *testing.T) {
	rtC := addr.RouteTarget{Admin: 65000, Assigned: 3}
	both := NewVRF("both", 1, rdA, []addr.RouteTarget{rtA, rtB}, []addr.RouteTarget{rtA})
	onlyB := NewVRF("onlyB", 1, rdB, []addr.RouteTarget{rtB}, []addr.RouteTarget{rtB})
	var x RTIndex
	x.Add(both)
	x.Add(onlyB)
	r := &bgp.VPNRoute{
		Prefix:  addr.VPNPrefix{RD: addr.RouteDistinguisher{Admin: 65000, Assigned: 9}, Prefix: addr.MustParsePrefix("10.9.0.0/16")},
		NextHop: lb2, Label: 500, RTs: []addr.RouteTarget{rtA, rtB}, OriginPE: 2,
	}
	handed := map[string]int{}
	x.each([]bgp.VPNRoute{*r}, func(v *VRF, _ *bgp.VPNRoute) { handed[v.Name]++ })
	if handed["both"] != 1 || handed["onlyB"] != 1 || len(handed) != 2 {
		t.Fatalf("handed %v, want both and onlyB once each", handed)
	}
	x.Import([]bgp.VPNRoute{*r})
	if both.Size() != 1 || onlyB.Size() != 1 {
		t.Fatalf("sizes %d and %d after the import, want 1 and 1", both.Size(), onlyB.Size())
	}

	other := &bgp.VPNRoute{RTs: []addr.RouteTarget{rtC}}
	if !x.Wants(r) || x.Wants(other) {
		t.Fatalf("Wants: %v for a and b, %v for c; want true, false", x.Wants(r), x.Wants(other))
	}
	x.Remove(both)
	x.Remove(onlyB)
	if x.Wants(r) || len(x.ents) != 0 {
		t.Fatalf("an emptied index still wants the route (%d entries)", len(x.ents))
	}
}
