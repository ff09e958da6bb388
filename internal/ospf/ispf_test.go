package ospf

import (
	"slices"
	"testing"
	"testing/quick"

	"mplsvpn/internal/topo"
)

func sameRouteTable(a, b map[topo.NodeID]Route) bool {
	if len(a) != len(b) {
		return false
	}
	for dst, ra := range a {
		rb, ok := b[dst]
		if !ok || !sameRoute(ra, rb) {
			return false
		}
	}
	return true
}

// routeDiff returns the destinations whose route differs between two
// tables (either direction), as a set.
func routeDiff(old, nw map[topo.NodeID]Route) map[topo.NodeID]bool {
	diff := map[topo.NodeID]bool{}
	for dst, ro := range old {
		if rn, ok := nw[dst]; !ok || !sameRoute(ro, rn) {
			diff[dst] = true
		}
	}
	for dst := range nw {
		if _, ok := old[dst]; !ok {
			diff[dst] = true
		}
	}
	return diff
}

// routeMap returns the instance's routing table as the map it stands for.
func routeMap(in *Instance) map[topo.NodeID]Route {
	out := map[topo.NodeID]Route{}
	for _, r := range in.Routes() {
		out[r.Dest] = r
	}
	return out
}

// Property: an ISPF domain and a full-SPF (DisableISPF) shadow domain over
// the same graph produce identical routing tables at every router after
// every event of a random link-flap / metric-change sequence; flooding
// counters are unaffected by ISPF; and TakeChangedDests reports exactly
// the destinations whose route changed at each step — the same list, in
// the same order, as the full derivation's own diff in the shadow domain.
func TestISPFMatchesFullSPFAcrossFlapSequences(t *testing.T) {
	f := func(nRaw uint8, extras []uint16, seq []uint16) bool {
		nodes := 3 + int(nRaw%8)
		if len(extras) > 12 {
			extras = extras[:12]
		}
		if len(seq) > 30 {
			seq = seq[:30]
		}
		g := randomGraph(nodes, extras)
		inc := NewDomain(g)
		inc.Converge()
		full := NewDomain(g)
		full.DisableISPF = true
		full.Converge()
		// Converge diffs are not under test here; drop them.
		for n, in := range inc.Instances {
			in.TakeChangedDests()
			full.Instances[n].TakeChangedDests()
		}

		routeChanges := 0
		for _, ev := range seq {
			lid := topo.LinkID(int(ev) % g.NumLinks())
			l := g.Link(lid)
			switch (ev >> 8) % 3 {
			case 0: // duplex flap (the FailLink/RestoreLink shape)
				down := !l.Down
				g.SetDown(lid, down)
				if rev, ok := g.Reverse(lid); ok {
					g.SetDown(rev.ID, down)
				}
			case 1: // single-direction flap
				g.SetDown(lid, !l.Down)
			default: // metric change
				l.Metric = 1 + int(ev>>10)%6
			}

			prev := make([]map[topo.NodeID]Route, len(inc.Instances))
			for n, in := range inc.Instances {
				prev[n] = routeMap(in)
			}

			inc.NotifyLinkChange(l.From, l.To)
			full.NotifyLinkChange(l.From, l.To)

			for n, in := range inc.Instances {
				if !sameRouteTable(routeMap(in), routeMap(full.Instances[n])) {
					return false
				}
				want := routeDiff(prev[n], routeMap(in))
				routeChanges += len(want)
				got := in.TakeChangedDests()
				if len(got) != len(want) || !slices.Equal(got, full.Instances[n].TakeChangedDests()) {
					return false
				}
				for _, dst := range got {
					if !want[dst] {
						return false
					}
				}
			}
			if inc.MessagesSent != full.MessagesSent || inc.FloodRounds != full.FloodRounds {
				return false
			}
		}
		// Flapping an off-tree link (say a parallel higher-metric edge) can
		// legitimately leave every table untouched with zero derivations, so
		// the exercised-path guard keys on observed route changes.
		if routeChanges > 0 && inc.ISPFRuns == 0 {
			return false // the incremental path was never exercised
		}
		// After Converge the full domain must stay on the full path and the
		// incremental one must never fall back (no crashes in this test).
		return full.ISPFRuns == 0 && inc.FullSPFRuns == len(inc.Instances)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalSPFMatchesIGP ties the engine's two clients together: on
// random graphs changed by duplex flaps and metric changes, after every
// NotifyLinkChange each instance's route to every router has the Dist of a
// topo.IncrementalSPF from the same router that was fed the same links, and
// the first link of the tracker's path is one of the route's NextHops. A
// duplex flap takes every link between the two routers, both ways. Left out
// are the two cases where the IGP and the live graph legitimately differ:
// one-way flaps (the bidirectional check), and a flap that partitions the
// graph (flooding stops at the cut and nothing resynchronises the two
// halves' databases when it heals), which is skipped.
func TestIncrementalSPFMatchesIGP(t *testing.T) {
	igpRuns, teRuns := 0, 0
	f := func(nRaw uint8, extras []uint16, seq []uint16) bool {
		nodes := 3 + int(nRaw%8)
		if len(extras) > 12 {
			extras = extras[:12]
		}
		if len(seq) > 30 {
			seq = seq[:30]
		}
		g := randomGraph(nodes, extras)
		d := NewDomain(g)
		d.Converge()
		trackers := make([]*topo.IncrementalSPF, len(d.Instances))
		for r, in := range d.Instances {
			trackers[r] = topo.NewIncrementalSPF(g, in.Node, topo.Constraints{})
		}
		for _, ev := range seq {
			l := g.Link(topo.LinkID(int(ev) % g.NumLinks()))
			var fed []topo.LinkID
			if (ev>>8)%2 == 0 {
				down := !l.Down
				for lid := range g.NumLinks() {
					if m := g.Link(topo.LinkID(lid)); (m.From == l.From && m.To == l.To) || (m.From == l.To && m.To == l.From) {
						g.SetDown(m.ID, down)
						fed = append(fed, m.ID)
					}
				}
				if !g.SPF(l.From).Reachable(l.To) {
					for _, lid := range fed {
						g.SetDown(lid, !down)
					}
					continue
				}
			} else {
				l.Metric = 1 + int(ev>>10)%6
				fed = append(fed, l.ID)
			}
			d.NotifyLinkChange(l.From, l.To)
			for r, in := range d.Instances {
				tr := trackers[r]
				for _, lid := range fed {
					tr.ApplyLinkChange(lid)
				}
				res := tr.Result()
				for dst := range topo.NodeID(g.NumNodes()) {
					if dst == in.Node {
						continue
					}
					rt, ok := in.RouteTo(dst)
					if ok != res.Reachable(dst) || (ok && rt.Metric != res.Dist[dst]) {
						t.Logf("%d->%d: route %+v (%t), tracker dist %d", in.Node, dst, rt, ok, res.Dist[dst])
						return false
					}
					if p, _ := res.PathTo(g, dst); ok && !slices.Contains(rt.NextHops, p.Links[0]) {
						t.Logf("%d->%d: tracker's first link %d is not among %v", in.Node, dst, p.Links[0], rt.NextHops)
						return false
					}
				}
				teRuns += tr.IncrementalRuns
			}
		}
		igpRuns += d.ISPFRuns
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if igpRuns == 0 || teRuns == 0 {
		t.Fatalf("incremental paths never exercised: %d IGP derivations, %d tracker updates", igpRuns, teRuns)
	}
}

// A restored (or freshly built) instance has no ISPF state; the next
// NotifyLinkChange must fall back to a full SPF, rebuild the state, and
// subsequent events must ride the incremental path again.
func TestISPFFallbackAfterStateDrop(t *testing.T) {
	g := randomGraph(6, []uint16{0x137, 0x2a4, 0x0b2})
	d := NewDomain(g)
	d.Converge()
	for _, in := range d.Instances {
		in.ispf = nil // what snapshot restore does
		in.TakeChangedDests()
	}
	fullBefore := d.FullSPFRuns

	l := g.Link(0)
	g.SetDown(0, true)
	if rev, ok := g.Reverse(0); ok {
		g.SetDown(rev.ID, true)
	}
	d.NotifyLinkChange(l.From, l.To)
	if d.FullSPFRuns != fullBefore+len(d.Instances) {
		t.Fatalf("expected full fallback on all %d instances, FullSPFRuns %d -> %d",
			len(d.Instances), fullBefore, d.FullSPFRuns)
	}

	ispfBefore := d.ISPFRuns
	g.SetDown(0, false)
	if rev, ok := g.Reverse(0); ok {
		g.SetDown(rev.ID, false)
	}
	d.NotifyLinkChange(l.From, l.To)
	// Instances the restored link doesn't route through stay clean and skip
	// derivation, so we don't demand a run per instance — only that the
	// incremental path carried the event with zero full fallbacks.
	if d.ISPFRuns == ispfBefore {
		t.Fatalf("expected incremental runs after state rebuild, ISPFRuns stuck at %d", ispfBefore)
	}
	if d.FullSPFRuns != fullBefore+len(d.Instances) {
		t.Fatalf("unexpected full fallback after rebuild, FullSPFRuns %d -> %d",
			fullBefore+len(d.Instances), d.FullSPFRuns)
	}
	for _, in := range d.Instances {
		src := in.Node
		oracle := g.SPF(src)
		for _, to := range d.Instances {
			dst := to.Node
			if dst == src {
				continue
			}
			r, ok := in.RouteTo(dst)
			if !ok || r.Metric != oracle.Dist[dst] {
				t.Fatalf("%d->%d: route %+v ok=%v, oracle %d", src, dst, r, ok, oracle.Dist[dst])
			}
		}
	}
}
