package vpn

import (
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/bgp"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

var (
	rdA = addr.RouteDistinguisher{Admin: 65000, Assigned: 1}
	rdB = addr.RouteDistinguisher{Admin: 65000, Assigned: 2}
	rtA = addr.RouteTarget{Admin: 65000, Assigned: 1}
	rtB = addr.RouteTarget{Admin: 65000, Assigned: 2}
	lb1 = addr.MustParseIPv4("10.255.0.1")
	lb2 = addr.MustParseIPv4("10.255.0.2")
)

func seqLabels() func(addr.Prefix) packet.Label {
	next := packet.Label(1000)
	return func(addr.Prefix) packet.Label {
		l := next
		next++
		return l
	}
}

// importAll offers every route to v, in order, and counts those installed.
func importAll(v *VRF, routes []*bgp.VPNRoute) int {
	n := 0
	for _, r := range routes {
		if v.ImportRoute(r) {
			n++
		}
	}
	return n
}

func TestAttachSiteExports(t *testing.T) {
	v := NewVRF("acme", 1, rdA, []addr.RouteTarget{rtA}, []addr.RouteTarget{rtA})
	s := &Site{Name: "hq", VPN: "acme", PE: 1, Prefixes: []addr.Prefix{
		addr.MustParsePrefix("10.1.0.0/16"),
		addr.MustParsePrefix("10.2.0.0/16"),
	}}
	exports := v.AttachSite(s, seqLabels(), lb1)
	if len(exports) != 2 {
		t.Fatalf("exports = %d", len(exports))
	}
	for _, e := range exports {
		if e.Prefix.RD != rdA || e.NextHop != lb1 || !e.HasRT(rtA) {
			t.Fatalf("bad export %+v", e)
		}
	}
	if exports[0].Label == exports[1].Label {
		t.Fatal("two prefixes share a VPN label")
	}
	r, ok := v.Lookup(addr.MustParseIPv4("10.1.5.5"))
	if !ok || !r.Local || v.SiteName(r) != "hq" {
		t.Fatalf("local route = %+v ok=%v", r, ok)
	}
	if v.Size() != 2 {
		t.Fatalf("Size = %d", v.Size())
	}
}

func TestImportRespectsRouteTargets(t *testing.T) {
	v := NewVRF("acme", 1, rdA, []addr.RouteTarget{rtA}, []addr.RouteTarget{rtA})
	routes := []*bgp.VPNRoute{
		{Prefix: addr.VPNPrefix{RD: rdA, Prefix: addr.MustParsePrefix("10.9.0.0/16")},
			NextHop: lb2, Label: 500, RTs: []addr.RouteTarget{rtA}, OriginPE: 2},
		{Prefix: addr.VPNPrefix{RD: rdB, Prefix: addr.MustParsePrefix("10.8.0.0/16")},
			NextHop: lb2, Label: 501, RTs: []addr.RouteTarget{rtB}, OriginPE: 2},
	}
	if n := importAll(v, routes); n != 1 {
		t.Fatalf("imported %d routes, want 1", n)
	}
	if _, ok := v.Lookup(addr.MustParseIPv4("10.8.0.1")); ok {
		t.Fatal("route from foreign VPN imported — isolation broken")
	}
	r, ok := v.Lookup(addr.MustParseIPv4("10.9.0.1"))
	if !ok || r.Local || r.VPNLabel != 500 || r.EgressPE != 2 {
		t.Fatalf("remote route = %+v ok=%v", r, ok)
	}
}

func TestLocalRoutePreferred(t *testing.T) {
	v := NewVRF("acme", 1, rdA, []addr.RouteTarget{rtA}, []addr.RouteTarget{rtA})
	s := &Site{Name: "hq", VPN: "acme", Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}}
	v.AttachSite(s, seqLabels(), lb1)
	importAll(v, []*bgp.VPNRoute{{
		Prefix:  addr.VPNPrefix{RD: rdA, Prefix: addr.MustParsePrefix("10.1.0.0/16")},
		NextHop: lb2, Label: 999, RTs: []addr.RouteTarget{rtA}, OriginPE: 2,
	}})
	r, _ := v.Lookup(addr.MustParseIPv4("10.1.0.1"))
	if !r.Local {
		t.Fatal("remote route displaced local attachment")
	}
}

func TestOwnExportNotReimported(t *testing.T) {
	v := NewVRF("acme", 1, rdA, []addr.RouteTarget{rtA}, []addr.RouteTarget{rtA})
	n := importAll(v, []*bgp.VPNRoute{{
		Prefix:  addr.VPNPrefix{RD: rdA, Prefix: addr.MustParsePrefix("10.1.0.0/16")},
		NextHop: lb1, Label: 7, RTs: []addr.RouteTarget{rtA}, OriginPE: 1,
	}})
	if n != 0 {
		t.Fatal("VRF imported its own export")
	}
}

func TestDetachSiteWithdraws(t *testing.T) {
	v := NewVRF("acme", 1, rdA, []addr.RouteTarget{rtA}, []addr.RouteTarget{rtA})
	s := &Site{Name: "hq", VPN: "acme", Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}}
	v.AttachSite(s, seqLabels(), lb1)
	w := v.DetachSite("hq")
	if len(w) != 1 || w[0].Prefix != addr.MustParsePrefix("10.1.0.0/16") {
		t.Fatalf("withdrawn = %v", w)
	}
	if _, ok := v.Lookup(addr.MustParseIPv4("10.1.0.1")); ok {
		t.Fatal("route survived detach")
	}
	if v.DetachSite("hq") != nil {
		t.Fatal("double detach returned withdrawals")
	}
	if len(v.Sites()) != 0 {
		t.Fatal("site list not empty")
	}
}

func TestExtranetImportsBoth(t *testing.T) {
	// An extranet VRF imports two VPNs' route targets (§1's ad-hoc partner
	// linking).
	v := NewVRF("extranet", 1, rdA, []addr.RouteTarget{rtA, rtB}, []addr.RouteTarget{rtA})
	n := importAll(v, []*bgp.VPNRoute{
		{Prefix: addr.VPNPrefix{RD: rdA, Prefix: addr.MustParsePrefix("10.1.0.0/16")},
			NextHop: lb2, Label: 1, RTs: []addr.RouteTarget{rtA}, OriginPE: 2},
		{Prefix: addr.VPNPrefix{RD: rdB, Prefix: addr.MustParsePrefix("10.2.0.0/16")},
			NextHop: lb2, Label: 2, RTs: []addr.RouteTarget{rtB}, OriginPE: 2},
	})
	if n != 2 {
		t.Fatalf("extranet imported %d, want 2", n)
	}
}

func TestDiscoveryIsolation(t *testing.T) {
	r := NewRegistry()
	var aEvents, bEvents []Event
	r.Subscribe("vpnA", func(e Event) { aEvents = append(aEvents, e) })
	r.Subscribe("vpnB", func(e Event) { bEvents = append(bEvents, e) })

	if err := r.Join(Site{Name: "a1", VPN: "vpnA"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Join(Site{Name: "b1", VPN: "vpnB"}); err != nil {
		t.Fatal(err)
	}
	if len(aEvents) != 1 || aEvents[0].Site.Name != "a1" {
		t.Fatalf("vpnA events = %v", aEvents)
	}
	for _, e := range aEvents {
		if e.VPN != "vpnA" {
			t.Fatal("vpnA subscriber saw foreign event")
		}
	}
	if len(bEvents) != 1 || bEvents[0].Site.Name != "b1" {
		t.Fatalf("vpnB events = %v", bEvents)
	}
}

func TestDiscoveryReplayForLateSubscriber(t *testing.T) {
	r := NewRegistry()
	r.Join(Site{Name: "s1", VPN: "v"})
	r.Join(Site{Name: "s2", VPN: "v"})
	var got []Event
	r.Subscribe("v", func(e Event) { got = append(got, e) })
	if len(got) != 2 {
		t.Fatalf("replay delivered %d events, want 2", len(got))
	}
}

func TestDiscoveryLeave(t *testing.T) {
	r := NewRegistry()
	var events []Event
	r.Subscribe("v", func(e Event) { events = append(events, e) })
	r.Join(Site{Name: "s1", VPN: "v"})
	if err := r.Leave("v", "s1"); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].Joined {
		t.Fatalf("leave event missing: %v", events)
	}
	if len(r.Members("v")) != 0 {
		t.Fatal("membership not empty after leave")
	}
	if err := r.Leave("v", "s1"); err == nil {
		t.Fatal("double leave accepted")
	}
}

func TestDiscoveryDuplicateJoin(t *testing.T) {
	r := NewRegistry()
	r.Join(Site{Name: "s1", VPN: "v"})
	if err := r.Join(Site{Name: "s1", VPN: "v"}); err == nil {
		t.Fatal("duplicate join accepted")
	}
	if err := r.Join(Site{Name: "", VPN: "v"}); err == nil {
		t.Fatal("anonymous site accepted")
	}
}

func TestMembersSorted(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		r.Join(Site{Name: n, VPN: "v"})
	}
	ms := r.Members("v")
	if len(ms) != 3 || ms[0].Name != "alpha" || ms[2].Name != "zeta" {
		t.Fatalf("members = %v", ms)
	}
}

func TestPurgeRemote(t *testing.T) {
	v := NewVRF("acme", 1, rdA, []addr.RouteTarget{rtA}, []addr.RouteTarget{rtA})
	v.AttachSite(&Site{Name: "hq", VPN: "acme",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}}, seqLabels(), lb1)
	importAll(v, []*bgp.VPNRoute{{
		Prefix:  addr.VPNPrefix{RD: rdA, Prefix: addr.MustParsePrefix("10.2.0.0/16")},
		NextHop: lb2, Label: 5, RTs: []addr.RouteTarget{rtA}, OriginPE: 2,
	}})
	v.InstallExternal(addr.MustParsePrefix("10.3.0.0/16"), "interas:x")
	if n := v.PurgeRemote(); n != 1 {
		t.Fatalf("purged %d, want 1", n)
	}
	if _, ok := v.Lookup(addr.MustParseIPv4("10.2.0.1")); ok {
		t.Fatal("remote route survived purge")
	}
	if _, ok := v.Lookup(addr.MustParseIPv4("10.1.0.1")); !ok {
		t.Fatal("local route purged")
	}
	if _, ok := v.Lookup(addr.MustParseIPv4("10.3.0.1")); !ok {
		t.Fatal("external route purged")
	}
}

// TestSiteListFollowsRoutesAndBindings: a local route names its site by an
// index into the VRF's site list, which holds a name while a route names it
// or an access link is bound for it, frees it after, and gives the slot to
// the next new name. A checkpoint carries names, so a loaded VRF answers the
// same SiteName and AccessLink for every route.
func TestSiteListFollowsRoutesAndBindings(t *testing.T) {
	v := NewVRF("acme", 1, rdA, []addr.RouteTarget{rtA}, []addr.RouteTarget{rtA})
	hq := &Site{Name: "hq", VPN: "acme", Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16"), addr.MustParsePrefix("10.4.0.0/16")}}
	branch := &Site{Name: "branch", VPN: "acme", Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}}
	v.AttachSite(hq, seqLabels(), lb1)
	v.AttachSite(branch, seqLabels(), lb1)
	v.BindAccess("branch", 55)
	v.InstallExternal(addr.MustParsePrefix("10.3.0.0/16"), "interas:x")
	route := func(v *VRF, ip string) Route {
		rt, ok := v.Lookup(addr.MustParseIPv4(ip))
		if !ok || !rt.Local {
			t.Fatalf("no local route for %s", ip)
		}
		return rt
	}
	check := func(v *VRF, ip, site string, out topo.LinkID, bound bool) {
		t.Helper()
		rt := route(v, ip)
		l, ok := v.AccessLink(rt)
		if v.SiteName(rt) != site || ok != bound || (bound && l != out) {
			t.Fatalf("%s: site %q link %d/%v, want %q %d/%v", ip, v.SiteName(rt), l, ok, site, out, bound)
		}
	}
	check(v, "10.1.0.1", "hq", 0, false)
	check(v, "10.4.0.1", "hq", 0, false)
	check(v, "10.2.0.1", "branch", 55, true)
	check(v, "10.3.0.1", "interas:x", 0, false)
	if len(v.names) != 3 {
		t.Fatalf("site list %v, want hq, branch and the peer", v.names)
	}

	var w snapshot.Writer
	VRFState(snapshot.Saver(&w), v)
	v.AccessState(snapshot.Saver(&w))
	var u VRF
	c := snapshot.Loader(snapshot.NewReader(w.Data()))
	VRFState(c, &u)
	u.AccessState(c)
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	check(&u, "10.1.0.1", "hq", 0, false)
	check(&u, "10.2.0.1", "branch", 55, true)
	check(&u, "10.3.0.1", "interas:x", 0, false)

	// The peer's slot frees with its last route, hq's stays while a route
	// names it, and branch's while its link is bound though its routes went.
	if v.RemoveExternal(addr.MustParsePrefix("10.3.0.0/16"), "interas:y") || !v.RemoveExternal(addr.MustParsePrefix("10.3.0.0/16"), "interas:x") {
		t.Fatal("RemoveExternal did not go by the owning peer's name")
	}
	v.DetachSite("branch")
	v.InstallExternal(addr.MustParsePrefix("10.5.0.0/16"), "interas:z")
	check(v, "10.5.0.1", "interas:z", 0, false)
	check(v, "10.1.0.1", "hq", 0, false)
	if len(v.names) != 3 || v.names[route(v, "10.5.0.1").Site].name != "interas:z" {
		t.Fatalf("site list %v: the new peer did not take the freed slot", v.names)
	}
	v.UnbindAccess("branch")
	v.AttachSite(&Site{Name: "lab", VPN: "acme", Prefixes: []addr.Prefix{addr.MustParsePrefix("10.6.0.0/16")}}, seqLabels(), lb1)
	if len(v.names) != 3 {
		t.Fatalf("site list %v: branch's slot was not reused once unbound", v.names)
	}
	check(v, "10.6.0.1", "lab", 0, false)
}
