package core

import (
	"bytes"
	"fmt"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/ospf"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

// The link-flap scenarios of the equivalence harness: what the delta label
// plane (ldp.ApplyIGPDelta behind reconvergeProvider's incremental branch)
// promises, checked on the serial engine and at every shard count.

func gridP(i, j int) string { return fmt.Sprintf("P%d-%d", i, j) }

// gridBackbone builds a side x side grid of P routers on unit-metric links
// — every pair of routers not on one row or column has equal-cost paths —
// with PE1..PE4 on the corners.
func gridBackbone(cfg Config, side int) *Backbone {
	b := NewBackbone(cfg)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			b.AddP(gridP(i, j))
		}
	}
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			if j+1 < side {
				b.Link(gridP(i, j), gridP(i, j+1), 100e6, sim.Millisecond, 1)
			}
			if i+1 < side {
				b.Link(gridP(i, j), gridP(i+1, j), 100e6, sim.Millisecond, 1)
			}
		}
	}
	for k, at := range []string{gridP(0, 0), gridP(0, side-1), gridP(side-1, 0), gridP(side-1, side-1)} {
		pe := fmt.Sprintf("PE%d", k+1)
		b.AddPE(pe)
		b.Link(pe, at, 100e6, sim.Millisecond, 1)
	}
	b.BuildProvider()
	return b
}

// gridSites puts n sites of VPN "v" round-robin on the four PEs.
func gridSites(b *Backbone, n int) {
	b.DefineVPN("v")
	for i := 0; i < n; i++ {
		b.AddSite(SiteSpec{VPN: "v", Name: fmt.Sprintf("s%d", i), PE: fmt.Sprintf("PE%d", i%4+1),
			Prefixes: []addr.Prefix{addr.NewPrefix(addr.IPv4(0x0a000000|uint32(i+1)<<8), 24)}})
	}
	b.ConvergeVPNs()
}

// flapStep is one scripted FailLink or RestoreLink.
type flapStep struct {
	a, z    string
	restore bool
}

// overlappingFlaps interleaves failures and restores of the given links so
// that two are down at once for half of the script: F0 F1 R0 F2 R1 ... R(n-1).
func overlappingFlaps(links [][2]string) []flapStep {
	var script []flapStep
	for k, l := range links {
		script = append(script, flapStep{a: l[0], z: l[1]})
		if k > 0 {
			script = append(script, flapStep{a: links[k-1][0], z: links[k-1][1], restore: true})
		}
	}
	last := links[len(links)-1]
	return append(script, flapStep{a: last[0], z: last[1], restore: true})
}

// grid3Flaps is a 24-flap script over twelve links of the 3x3 grid; no two
// of its consecutive links share a router, so the grid stays connected.
func grid3Flaps() []flapStep {
	return overlappingFlaps([][2]string{
		{"P0-0", "P0-1"}, {"P1-1", "P2-1"}, {"P0-1", "P0-2"}, {"P1-0", "P2-0"},
		{"P1-1", "P1-2"}, {"P0-0", "P1-0"}, {"P2-1", "P2-2"}, {"P0-1", "P1-1"},
		{"P1-2", "P2-2"}, {"P1-0", "P1-1"}, {"P0-2", "P1-2"}, {"P2-0", "P2-1"},
	})
}

// apply plays the step with the given detection delay. full forces the
// reconvergence it triggers down the full branch.
func (s flapStep) apply(b *Backbone, detect sim.Time, full bool) {
	b.pendingFull = b.pendingFull || full
	var err error
	if s.restore {
		err = b.RestoreLink(s.a, s.z, detect)
	} else {
		err = b.FailLink(s.a, s.z, detect)
	}
	if err != nil {
		panic(err)
	}
}

// onWire counts the directions of the a-z fibre that have a packet offered
// and not yet sent or dropped: what a failure at this instant may destroy
// whatever the control plane does.
func onWire(b *Backbone, a, z string) int {
	n := 0
	na, nz := b.mustNode(a), b.mustNode(z)
	for _, dir := range [][2]topo.NodeID{{na, nz}, {nz, na}} {
		l, _ := b.G.FindLink(dir[0], dir[1])
		if b.Net.LinkOfferedBytes(l.ID)-b.Net.LinkTxBytes(l.ID)-b.Net.LinkDroppedBytes(l.ID) != 0 {
			n++
		}
	}
	return n
}

// labelTableBytes serializes every provider router's LFIB and FTN.
func labelTableBytes(b *Backbone) []byte {
	var w snapshot.Writer
	c := snapshot.Saver(&w)
	for _, n := range b.providerNodes {
		b.routers[n].LFIB.State(c)
		b.routers[n].FTN.State(c)
	}
	return w.Data()
}

// ldpDetours lists the LDP ILM entries at router n that carry FRR state or
// leave by a link the IGP does not name as a next hop.
func ldpDetours(b *Backbone, n topo.NodeID) []string {
	var out []string
	sp := b.LDP.Speaker(n)
	for _, d := range b.providerNodes {
		local, ok := sp.LocalBinding(addr.HostPrefix(ospf.Loopback(d)))
		if !ok || d == n {
			continue
		}
		es, _ := sp.LFIB.LookupILMAll(local)
		rt, _ := b.IGP.Instance(n).RouteTo(d)
		for i, e := range es {
			if e.BypassLabel != 0 || i >= len(rt.NextHops) || e.OutLink != rt.NextHops[i] {
				out = append(out, fmt.Sprintf("%s->%s member %d: link %d bypass %d", b.G.Name(n), b.G.Name(d), i, e.OutLink, e.BypassLabel))
			}
		}
	}
	return out
}

func linkFlapScenarios() []equivScenario {
	// Filled by the scheduled events of the run in progress; build resets it.
	var failures []string
	failf := func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }
	report := func(t *testing.T, _ *Backbone) {
		for _, f := range failures {
			t.Error(f)
		}
	}

	flapBuild := func() *Backbone {
		failures = nil
		b := gridBackbone(Config{Seed: 61, Scheduler: SchedHybrid}, 3)
		gridSites(b, 4)
		// A TE LSP nobody sends on: every reconvergence re-signals it, so the
		// old generation's ILM entries have to leave the surviving tables.
		b.DefineVPN("idle")
		b.AddSite(SiteSpec{VPN: "idle", Name: "i2", PE: "PE2", Prefixes: []addr.Prefix{addr.MustParsePrefix("10.9.2.0/24")}})
		b.AddSite(SiteSpec{VPN: "idle", Name: "i3", PE: "PE3", Prefixes: []addr.Prefix{addr.MustParsePrefix("10.9.3.0/24")}})
		b.ConvergeVPNs()
		if _, err := b.SetupTELSPForVPN("te-idle", "PE2", "PE3", "idle", 1e6, -1, rsvp.SetupOptions{}); err != nil {
			panic(err)
		}
		return b
	}
	const flapStart, flapEvery = 50 * sim.Millisecond, 20 * sim.Millisecond
	// playFlaps schedules the 24-flap script: failures detected at once,
	// restores after 2 ms.
	playFlaps := func(b *Backbone, full bool, before func(k int, s flapStep)) {
		for k, s := range grid3Flaps() {
			k, s := k, s
			b.At(flapStart+sim.Time(k)*flapEvery, func() {
				if before != nil {
					before(k, s)
				}
				detect := sim.Time(0)
				if s.restore {
					detect = 2 * sim.Millisecond
				}
				s.apply(b, detect, full)
			})
		}
	}

	return []equivScenario{
		{
			// (a) Traffic across 24 link flaps, two links down at once for half
			// of them. Labels never change, so nothing in flight is ever
			// black-holed: a restore loses no packet, a failure detected at once
			// loses only what was on the failed fibre itself, and no router
			// counts a missing label binding. (e) And the state the delta leaves
			// digests like the state the full branch leaves.
			name:  "link-flap-script",
			dur:   flapStart + 24*flapEvery + 30*sim.Millisecond,
			build: flapBuild,
			traffic: func(b *Backbone) {
				for i, pr := range [][2]string{{"s0", "s3"}, {"s3", "s0"}, {"s1", "s2"}, {"s2", "s1"}, {"s0", "s1"}} {
					f, err := b.FlowBetween(fmt.Sprintf("f%d", i), pr[0], pr[1], uint16(5060+i))
					if err != nil {
						panic(err)
					}
					trafgen.CBR(b.Net, f, 200, sim.Millisecond, sim.Time(i)*173*sim.Microsecond, flapStart+24*flapEvery+10*sim.Millisecond)
				}
				prevDropped, allowed, inFlight := 0, 0, 0
				var prev flapStep
				settle := func(k int) {
					lost := b.Net.Dropped - prevDropped
					prevDropped = b.Net.Dropped
					if k > 0 && lost > allowed {
						failf("step %d (%+v) lost %d packets, %d were on the failed fibre", k-1, prev, lost, allowed)
					}
				}
				playFlaps(b, false, func(k int, s flapStep) {
					settle(k)
					prev, allowed = s, 0
					if !s.restore {
						allowed = onWire(b, s.a, s.z)
					}
					if b.Net.Injected-b.Net.Delivered-b.Net.Dropped > 0 {
						inFlight++
					}
				})
				b.At(flapStart+24*flapEvery+25*sim.Millisecond, func() {
					settle(24)
					if inFlight < 20 {
						failf("packets were in flight at only %d of 24 flaps: the script proves nothing", inFlight)
					}
					for _, n := range b.providerNodes {
						if r := b.routers[n]; r.DroppedNoLabel != 0 {
							failf("%s dropped %d packets for a missing label binding", r.Name, r.DroppedNoLabel)
						}
					}
				})
			},
			check: func(t *testing.T, b *Backbone) {
				report(t, b)
				twin := flapBuild()
				playFlaps(twin, true, nil)
				twin.Net.RunUntil(flapStart + 24*flapEvery + 30*sim.Millisecond)
				// The service, not the state: the delta keeps the labels and LSPs
				// a flap did not touch, the full branch relabels every router and
				// signals every LSP again under a new ID.
				if got, want := b.ServiceDigest(), twin.ServiceDigest(); got != want {
					t.Errorf("delta and full branch digest differently at %s", diffLine(want, got))
				}
				if b.IGP.ISPFRuns == 0 || twin.IGP.ISPFRuns != 0 {
					t.Errorf("branches not taken as intended: ISPF runs %d, twin's %d", b.IGP.ISPFRuns, twin.IGP.ISPFRuns)
				}
			},
		},
		{
			// (b) Fail two links, restore them: once the last reconvergence has
			// run, every router's LFIB and FTN serialize to the bytes they had
			// before the first failure — members, their order, labels. (No TE
			// and no FRR here: RSVP re-signals with fresh labels by design.)
			name: "link-flap-returns-tables",
			dur:  200 * sim.Millisecond,
			build: func() *Backbone {
				failures = nil
				b := gridBackbone(Config{Seed: 62, Scheduler: SchedHybrid}, 3)
				gridSites(b, 4)
				return b
			},
			traffic: func(b *Backbone) {
				before := labelTableBytes(b)
				script := overlappingFlaps([][2]string{{"P1-1", "P1-2"}, {"P0-0", "P0-1"}})
				for k, s := range script {
					s := s
					b.At(sim.Time(20+30*k)*sim.Millisecond, func() { s.apply(b, 5*sim.Millisecond, false) })
				}
				b.At(60*sim.Millisecond, func() {
					if bytes.Equal(before, labelTableBytes(b)) {
						failf("two links down and no table changed: the scenario proves nothing")
					}
				})
				b.At(180*sim.Millisecond, func() {
					if !bytes.Equal(before, labelTableBytes(b)) {
						failf("fail+restore did not return the label tables to their pre-failure bytes")
					}
				})
			},
			check: report,
		},
		{
			// (c) FRR on, link restored before its failure is detected: local
			// repair has detoured every entry leaving the link at both endpoints
			// — LDP's and the transit hop of a TE LSP alike — the IGP sees no net
			// change, and the restore's reconvergence (35 ms) must still put the
			// LDP entries back on their IGP next hops and the LSP's labels back
			// on its path. The failure's own timer (100 ms) then finds nothing
			// queued and must stand down: no full rebuild, nothing detoured.
			name: "frr-restore-before-detect",
			dur:  150 * sim.Millisecond,
			build: func() *Backbone {
				failures = nil
				b := gridBackbone(Config{Seed: 63, Scheduler: SchedHybrid, FRR: true}, 3)
				gridSites(b, 4)
				// Along the middle row: the one shortest path, so the LSP is on
				// its target before and after and only the flap makes it dirty.
				l, err := b.SetupTELSP("te-mid", "P1-0", "P1-2", 1e6, -1, rsvp.SetupOptions{})
				if err != nil || b.pathName(l.Path) != "P1-0-P1-1-P1-2" {
					panic(fmt.Sprintf("te-mid: %v, %v", l, err))
				}
				return b
			},
			traffic: func(b *Backbone) {
				a, z := b.mustNode("P1-1"), b.mustNode("P1-2")
				detours := func() []string {
					return append(append(ldpDetours(b, a), ldpDetours(b, z)...), teLabelsOffPath(b)...)
				}
				full := b.IGP.FullSPFRuns
				b.At(20*sim.Millisecond, func() { flapStep{a: "P1-1", z: "P1-2"}.apply(b, 80*sim.Millisecond, false) })
				b.At(25*sim.Millisecond, func() {
					if len(ldpDetours(b, a)) == 0 || len(teLabelsOffPath(b)) == 0 {
						failf("local repair detoured %d LDP entries and %d LSP hops: the scenario proves nothing",
							len(ldpDetours(b, a)), len(teLabelsOffPath(b)))
					}
				})
				b.At(30*sim.Millisecond, func() { flapStep{a: "P1-1", z: "P1-2", restore: true}.apply(b, 5*sim.Millisecond, false) })
				b.At(50*sim.Millisecond, func() {
					for _, d := range detours() {
						failf("after the reconvergence, still detoured: %s", d)
					}
					if b.TELast.Moved != 1 {
						failf("the LSP over the blipped link was not re-signalled: %+v", b.TELast)
					}
				})
				b.At(110*sim.Millisecond, func() {
					for _, d := range detours() {
						failf("after the overtaken timer, detoured: %s", d)
					}
					if b.IGP.FullSPFRuns != full || b.TE.Reconvergences != 1 {
						failf("the overtaken timer did not stand down: %d full SPF runs (was %d), %d TE passes",
							b.IGP.FullSPFRuns, full, b.TE.Reconvergences)
					}
				})
			},
			check: report,
		},
	}
}

// TestInterASLinkFlapDeltaMatchesFullBranch flaps a link inside one member
// AS of a three-carrier option B and option C plane: the boundary state the
// onReconverged hook re-derives on the surviving tables must leave every
// AS with the digest the full branch leaves.
func TestInterASLinkFlapDeltaMatchesFullBranch(t *testing.T) {
	digest := func(x *InterAS) string {
		s := ""
		for _, name := range x.order {
			s += "as " + name + "\n" + x.AS(name).ServiceDigest()
		}
		return s
	}
	for _, opt := range []InterASOption{OptionA, OptionB, OptionC} {
		t.Run("option"+opt.String(), func(t *testing.T) {
			delta, full := buildThreeProviders(t, opt), buildThreeProviders(t, opt)
			for k, s := range []flapStep{
				{a: "g-P", z: "g-ASBR1"}, {a: "a-P", z: "a-ASBR2"},
				{a: "g-P", z: "g-ASBR1", restore: true}, {a: "a-P", z: "a-ASBR2", restore: true},
			} {
				as := "gamma"
				if s.a[0] == 'a' {
					as = "alpha"
				}
				s.apply(delta.AS(as), 0, false)
				s.apply(full.AS(as), 0, true)
				if got, want := digest(delta), digest(full); got != want {
					t.Fatalf("step %d (%+v): delta and full branch digest differently at %s", k, s, diffLine(want, got))
				}
			}
			if delta.AS("gamma").IGP.ISPFRuns == 0 || full.AS("gamma").IGP.ISPFRuns != 0 {
				t.Fatalf("branches not taken as intended: delta ISPF runs %d, full %d",
					delta.AS("gamma").IGP.ISPFRuns, full.AS("gamma").IGP.ISPFRuns)
			}
		})
	}
}
