package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/bgp"
	"mplsvpn/internal/core"
	"mplsvpn/internal/netconf"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/vpn"
)

// The route-target index against the scan it replaced. The oracle is the
// per-VRF scan: a PE keeps an offered route iff one of its VRFs' import
// lists names one of the route's targets, and each VRF, purged, takes every
// best route in order that VRF.ImportRoute admits. Two backbones run the
// same churn: one as built (its speakers filter through the PE's index and
// its VRFs import through it), the other with every speaker's filter
// replaced by the scan. After every step both must have offered and kept the
// same routes at every speaker, and every VRF of the first must hold, in
// Walk order, what the scan re-imports into the second's.

const rtiAdmin = 65000

// rtiPEs are the backbone's PEs; PE6 never gets a site, so it holds no VRF
// and must keep nothing it is offered.
var rtiPEs = []string{"PE1", "PE2", "PE3", "PE4", "PE5", "PE6"}

// rtiSite is one site of the churn: which VPN, which PE, which prefix.
type rtiSite struct {
	name, vpn, pe string
	prefix        string
}

// The sites: three intranets (a, b, c), an extranet x importing a and b and
// exporting under its own target and a's and c's (so x's routes carry three
// targets, two of which x itself imports), and a hub-and-spoke pair. Site
// a2 and b2 share a prefix, which x imports from both: the later best path
// must win there, as with the scan.
var rtiSites = []rtiSite{
	{"a1", "a", "PE1", "10.1.1.0/24"}, {"a2", "a", "PE2", "10.99.0.0/24"}, {"a3", "a", "PE3", "10.1.3.0/24"},
	{"b1", "b", "PE2", "10.2.1.0/24"}, {"b2", "b", "PE3", "10.99.0.0/24"},
	{"c1", "c", "PE5", "10.3.1.0/24"}, {"c2", "c", "PE4", "10.3.2.0/24"},
	{"x1", "x", "PE1", "10.4.1.0/24"}, {"x2", "x", "PE4", "10.4.2.0/24"},
	{"hub", "hub", "PE1", "10.5.0.0/24"},
	{"sp1", "spoke", "PE2", "10.5.1.0/24"}, {"sp2", "spoke", "PE3", "10.5.2.0/24"}, {"sp3", "spoke", "PE5", "10.5.3.0/24"},
}

func rtiSpec(s rtiSite) core.SiteSpec {
	return core.SiteSpec{VPN: s.vpn, Name: s.name, PE: s.pe, Prefixes: []addr.Prefix{addr.MustParsePrefix(s.prefix)}}
}

// rtiBuild builds the scenario from nothing: every site provisioned, converged,
// and damping on (a prefix flapped three times in a row is suppressed and
// comes back after a few seconds of hello scans).
func rtiBuild() *core.Backbone {
	b := core.NewBackbone(core.Config{Seed: 41, Scheduler: core.SchedHybrid})
	for _, pe := range rtiPEs {
		b.AddPE(pe)
	}
	b.AddP("P1")
	b.AddP("P2")
	for i, pe := range rtiPEs {
		b.Link(pe, fmt.Sprintf("P%d", i%2+1), 100e6, sim.Millisecond, 1)
	}
	b.Link("P1", "P2", 100e6, sim.Millisecond, 1)
	b.BuildProvider()
	for _, v := range []string{"a", "b", "c"} {
		b.DefineVPN(v)
	}
	rt := func(n uint32) addr.RouteTarget { return addr.RouteTarget{Admin: rtiAdmin, Assigned: n} }
	a, bb, c := b.RTOf("a"), b.RTOf("b"), b.RTOf("c")
	b.DefineVPNWithRTs("x", []addr.RouteTarget{rt(900), a, bb}, []addr.RouteTarget{rt(900), a, c})
	b.DefineVPNWithRTs("hub", []addr.RouteTarget{rt(911)}, []addr.RouteTarget{rt(910)})
	b.DefineVPNWithRTs("spoke", []addr.RouteTarget{rt(910)}, []addr.RouteTarget{rt(911)})
	for _, s := range rtiSites {
		b.AddSite(rtiSpec(s))
	}
	b.ConvergeVPNs()
	b.EnableSurvivability(core.SurvivabilityOptions{
		HelloOptions: core.HelloOptions{Horizon: 60 * sim.Second},
		Damping:      bgp.DampingConfig{Penalty: 1000, Suppress: 2500, Reuse: 800, HalfLife: 500 * sim.Millisecond},
	})
	return b
}

// scanFilter is the receive filter the index replaced.
func scanFilter(b *core.Backbone, pe string) func(*bgp.VPNRoute) bool {
	r := b.Router(pe)
	return func(route *bgp.VPNRoute) bool {
		for _, v := range r.VRFs {
			if v.WantsRoute(route) {
				return true
			}
		}
		return false
	}
}

// rtiRig is the pair of backbones under one churn.
type rtiRig struct {
	t       *testing.T
	idx     *core.Backbone // as built: the index filters and imports
	scan    *core.Backbone // the scan filters; its VRFs are re-imported by scan
	live    map[string]bool
	removed []string
}

func newRTIRig(t *testing.T) *rtiRig {
	r := &rtiRig{t: t, idx: rtiBuild(), scan: rtiBuild(), live: map[string]bool{}}
	for _, pe := range rtiPEs {
		sp, _ := r.scan.BGP.Speaker(nodeOf(r.scan, pe))
		sp.Filter = scanFilter(r.scan, pe)
	}
	for _, s := range rtiSites {
		r.live[s.name] = true
	}
	return r
}

func nodeOf(b *core.Backbone, name string) topo.NodeID {
	id, _ := b.G.NodeByName(name)
	return id
}

// both applies one step to each backbone.
func (r *rtiRig) both(what string, fn func(b *core.Backbone)) {
	r.t.Helper()
	fn(r.idx)
	fn(r.scan)
	r.check(what)
}

// walk renders a VRF's table in Walk order.
func walk(v *vpn.VRF) []string {
	var out []string
	v.Walk(func(p addr.Prefix, rt vpn.Route) bool {
		out = append(out, fmt.Sprintf("%v %+v", p, rt))
		return true
	})
	return out
}

// check compares the two backbones after a step: every speaker's offered
// and kept counts, then every VRF's table against the scan's import of the
// same best paths.
func (r *rtiRig) check(what string) {
	r.t.Helper()
	for _, pe := range rtiPEs {
		si, _ := r.idx.BGP.Speaker(nodeOf(r.idx, pe))
		ss, _ := r.scan.BGP.Speaker(nodeOf(r.scan, pe))
		if si.Received != ss.Received || si.Retained != ss.Retained {
			r.t.Fatalf("after %s: %s received/retained %d/%d through the index, %d/%d through the scan",
				what, pe, si.Received, si.Retained, ss.Received, ss.Retained)
		}
		ri, rs := r.idx.Router(pe), r.scan.Router(pe)
		if len(ri.VRFs) != len(rs.VRFs) {
			r.t.Fatalf("after %s: %s holds %d VRFs, the scan's twin %d", what, pe, len(ri.VRFs), len(rs.VRFs))
		}
		routes := ss.BestRoutes()
		for name, vs := range rs.VRFs {
			vs.PurgeRemote()
			for _, route := range routes {
				vs.ImportRoute(route)
			}
			vi, ok := ri.VRFs[name]
			if !ok {
				r.t.Fatalf("after %s: %s has no VRF %s", what, pe, name)
			}
			if got, want := walk(vi), walk(vs); !slices.Equal(got, want) {
				r.t.Fatalf("after %s: %s VRF %s through the index:\n%v\nthrough the scan:\n%v", what, pe, name, got, want)
			}
		}
	}
}

func TestRTIndexMatchesScan(t *testing.T) {
	r := newRTIRig(t)
	r.check("build")
	rng := rand.New(rand.NewSource(41))
	at := sim.Time(0)
	run := func(d sim.Time) {
		at += d
		r.both(fmt.Sprintf("running to %v", at), func(b *core.Backbone) { b.Net.RunUntil(at) })
	}

	// Seeded site churn: remove a live site or bring back a removed one.
	churn := func(n int) {
		for i := 0; i < n; i++ {
			if len(r.removed) > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(len(r.removed))
				name := r.removed[k]
				r.removed = slices.Delete(r.removed, k, k+1)
				r.live[name] = true
				s := rtiSites[slices.IndexFunc(rtiSites, func(s rtiSite) bool { return s.name == name })]
				r.both("AddSite "+name, func(b *core.Backbone) { b.AddSite(rtiSpec(s)); b.ConvergeVPNs() })
				continue
			}
			var live []string
			for _, s := range rtiSites {
				if r.live[s.name] {
					live = append(live, s.name)
				}
			}
			name := live[rng.Intn(len(live))]
			delete(r.live, name)
			r.removed = append(r.removed, name)
			r.both("RemoveSite "+name, func(b *core.Backbone) {
				if err := b.RemoveSite(name); err != nil {
					t.Fatal(err)
				}
				b.ConvergeVPNs()
			})
		}
	}
	churn(12)

	// VPN c gets a new route target through netconf: its sites go, the VPN
	// is undefined (its VRFs leave PE4 and PE5) and defined afresh, and the
	// sites come back under the new target. x still exports c's old one,
	// which no VRF imports any more.
	for _, name := range r.removed {
		r.live[name] = true
		s := rtiSites[slices.IndexFunc(rtiSites, func(s rtiSite) bool { return s.name == name })]
		r.both("AddSite "+name, func(b *core.Backbone) { b.AddSite(rtiSpec(s)); b.ConvergeVPNs() })
	}
	r.removed = nil
	oldC := r.idx.RTOf("c")
	edit := func(b *core.Backbone, ops ...netconf.Op) {
		sess, err := netconf.NewServer(b).Open("rt-edit")
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Stage(ops...); err != nil {
			t.Fatal(err)
		}
		if err := sess.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	r.both("netconf edit of VPN c's route targets", func(b *core.Backbone) {
		edit(b,
			netconf.Op{Kind: netconf.OpRemoveSite, Name: "c1"},
			netconf.Op{Kind: netconf.OpRemoveSite, Name: "c2"},
			netconf.Op{Kind: netconf.OpUndefineVPN, VPN: "c"},
			netconf.Op{Kind: netconf.OpDefineVPN, VPN: "c"},
			netconf.Op{Kind: netconf.OpAddSite, Site: rtiSpec(rtiSites[5])},
			netconf.Op{Kind: netconf.OpAddSite, Site: rtiSpec(rtiSites[6])})
	})
	if r.idx.RTOf("c") == oldC {
		t.Fatalf("VPN c kept route target %v across the edit", oldC)
	}

	// Damping: flap a2's prefix until it is suppressed, then let the hello
	// scans decay the penalty until DecayDamping reuses it and re-imports.
	for i := 0; i < 3; i++ {
		r.both("RemoveSite a2", func(b *core.Backbone) { b.RemoveSite("a2"); b.ConvergeVPNs() })
		r.both("AddSite a2", func(b *core.Backbone) { b.AddSite(rtiSpec(rtiSites[1])); b.ConvergeVPNs() })
	}
	if r.idx.BGP.RouteSuppressions == 0 {
		t.Fatal("three flaps suppressed nothing")
	}
	for i := 0; i < 8; i++ {
		run(500 * sim.Millisecond)
	}
	if r.idx.BGP.RouteReuses == 0 {
		t.Fatal("no suppressed prefix was reused")
	}

	// A checkpoint restored onto a rebuilt backbone carries the VRFs, and
	// the index must follow them: the churn goes on on the restored one.
	data, err := r.idx.Snapshot("rtindex")
	if err != nil {
		t.Fatal(err)
	}
	r.idx = rtiBuild()
	if err := r.idx.Restore(data, "rtindex"); err != nil {
		t.Fatal(err)
	}
	r.check("restore")
	churn(12)

	sp6, _ := r.idx.BGP.Speaker(nodeOf(r.idx, "PE6"))
	if sp6.Received == 0 || sp6.Retained != 0 {
		t.Fatalf("PE6, with no VRF, was offered %d routes and kept %d; want some and none", sp6.Received, sp6.Retained)
	}
}
