package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/ospf"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

// TE as a delta (DESIGN.md §8.7): what resignalTE promises, against the full
// sweep it replaces as the everyday path and keeps as its fallback.

// teRig is one backbone of the delta ≡ sweep property test plus the duplex
// core links its fault sequences draw from.
type teRig struct {
	b     *Backbone
	links [][2]string
	// baseILM is the ILM entries on provider routers that are not TE's: LDP
	// and VPN bindings, constant while the provider stays connected.
	baseILM int
}

// teGrid lays a side x side grid of P routers with the benchmark's varied
// metrics (unique shortest paths and equal-cost ties both occur), a PE on
// eight routers of its rim, and two customer sites dual-homed across PE
// pairs: cheap stubs the TE plane must not see.
func teGrid(cfg Config, side int, bw float64) *teRig {
	r := &teRig{b: NewBackbone(cfg)}
	b := r.b
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			b.AddP(gridP(i, j))
		}
	}
	link := func(a, z string, metric int) {
		b.Link(a, z, bw, sim.Millisecond, metric)
		r.links = append(r.links, [2]string{a, z})
	}
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			if j+1 < side {
				link(gridP(i, j), gridP(i, j+1), 1+(i*7+j*3)%4)
			}
			if i+1 < side {
				link(gridP(i, j), gridP(i+1, j), 1+(i*5+j*11)%4)
			}
		}
	}
	mid, far := side/2, side-1
	for k, at := range [][2]int{{0, 0}, {0, mid}, {0, far}, {mid, 0}, {mid, far}, {far, 0}, {far, mid}, {far, far}} {
		pe := fmt.Sprintf("PE%d", k+1)
		b.AddPE(pe)
		b.Link(pe, gridP(at[0], at[1]), 10*bw, sim.Millisecond, 2)
	}
	r.finish(8)
	return r
}

// teRing lays a ring of n P routers with a chord from every third, a PE on
// every other router, and the same two dual-homed sites.
func teRing(cfg Config, n int, bw float64) *teRig {
	r := &teRig{b: NewBackbone(cfg)}
	b := r.b
	name := func(i int) string { return fmt.Sprintf("R%d", i%n) }
	for i := 0; i < n; i++ {
		b.AddP(name(i))
	}
	for i := 0; i < n; i++ {
		b.Link(name(i), name(i+1), bw, sim.Millisecond, 2)
		r.links = append(r.links, [2]string{name(i), name(i + 1)})
		if i%3 == 0 {
			b.Link(name(i), name(i+5), bw, sim.Millisecond, 3)
			r.links = append(r.links, [2]string{name(i), name(i + 5)})
		}
	}
	for k := 0; k < n/2; k++ {
		pe := fmt.Sprintf("PE%d", k+1)
		b.AddPE(pe)
		b.Link(pe, name(2*k), 10*bw, sim.Millisecond, 2)
	}
	r.finish(n / 2)
	return r
}

func (r *teRig) finish(pes int) {
	b := r.b
	b.BuildProvider()
	b.DefineVPN("v")
	for i, pair := range [][2]int{{1, 2}, {pes - 1, pes}} {
		b.AddSite(SiteSpec{VPN: "v", Name: fmt.Sprintf("dual%d", i),
			PE: fmt.Sprintf("PE%d", pair[0]), BackupPE: fmt.Sprintf("PE%d", pair[1]),
			Prefixes: []addr.Prefix{addr.NewPrefix(addr.IPv4(0x0a000000|uint32(i+1)<<8), 24)}})
	}
	b.ConvergeVPNs()
	r.baseILM = teILM(b)
	for _, byp := range b.bypasses {
		r.baseILM -= len(byp.Path.Links) - 1
	}
}

// connectedWithout reports whether the core stays in one piece with the
// given links down (every PE hangs off one core router by a link the
// sequences never touch).
func (r *teRig) connectedWithout(down map[int]bool, also int) bool {
	root := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		if p, ok := root[x]; ok && p != x {
			root[x] = find(p)
			return root[x]
		}
		root[x] = x
		return x
	}
	for k, l := range r.links {
		find(l[0])
		find(l[1])
		if !down[k] && k != also {
			root[find(l[0])] = find(l[1])
		}
	}
	for x := range root {
		if find(x) != find(r.links[0][0]) {
			return false
		}
	}
	return true
}

// signalIntents asks for n TE LSPs between seeded PE pairs. An intent the
// network cannot admit at all is simply not recorded: the twin, built from
// the same seed, refuses the same ones.
func (r *teRig) signalIntents(rng *rand.Rand, n, pes int, bws []float64, voice bool) {
	for k := 0; k < n; k++ {
		in := rng.Intn(pes)
		eg := (in + 1 + rng.Intn(pes-1)) % pes
		class := qos.Class(-1)
		if voice && k%2 == 0 {
			class = qos.ClassVoice // CT1, the capped premium pool
		}
		r.b.SetupTELSP(fmt.Sprintf("te%d", k), fmt.Sprintf("PE%d", in+1), fmt.Sprintf("PE%d", eg+1),
			bws[rng.Intn(len(bws))], class, rsvp.SetupOptions{})
	}
}

// settle runs past the drain window so every make-before-break move has
// retired its old labels: what is bound afterwards is bound for good.
func (r *teRig) settle(t *testing.T) {
	t.Helper()
	r.b.Net.RunUntil(r.b.E.Now() + LSPDrainDelay + sim.Millisecond)
	if d := r.b.RSVP.PendingDrains(); len(d) != 0 {
		t.Fatalf("drains %v still pending past the drain window", d)
	}
}

// teState renders everything the delta and the sweep must agree on, LSP IDs
// and label values apart: every intent's (name, state, bandwidth, path),
// every ingress steering entry's out-link, every bypass's path, every link's
// reservation and DS-TE pools, and every router's ILM size — which, once the
// drains have run, counts LDP and VPN bindings (the same on both sides: the
// label plane below TE is one code path) plus one per transit hop of a live
// LSP, so a leaked or missing TE label shows as a difference.
func teState(b *Backbone) string {
	var sb strings.Builder
	for _, st := range b.TEIntents() {
		fmt.Fprintf(&sb, "intent %s %s %.0f %s\n", st.Name, st.State, st.Bandwidth, st.Path)
	}
	for _, req := range b.teRequests {
		e, ok := b.routers[req.ingress].TE[teKeyFor(req)]
		fmt.Fprintf(&sb, "steer %s %t link%d\n", req.name, ok, e.OutLink)
	}
	lids := make([]topo.LinkID, 0, len(b.bypasses))
	for lid := range b.bypasses {
		lids = append(lids, lid)
	}
	sort.Slice(lids, func(i, j int) bool { return lids[i] < lids[j] })
	for _, lid := range lids {
		fmt.Fprintf(&sb, "bypass link%d %s %s\n", lid, b.bypasses[lid].State, b.pathName(b.bypasses[lid].Path))
	}
	for i := 0; i < b.G.NumLinks(); i++ {
		l := b.G.Link(topo.LinkID(i))
		fmt.Fprintf(&sb, "link%d down=%t resv=%.0f", i, l.Down, l.ReservedBw)
		if ds := b.RSVP.DSTE; ds != nil {
			fmt.Fprintf(&sb, " ct0=%.0f ct1=%.0f", ds.Reserved(l.ID, rsvp.CT0), ds.Reserved(l.ID, rsvp.CT1))
		}
		sb.WriteByte('\n')
	}
	for _, n := range b.providerNodes {
		fmt.Fprintf(&sb, "router %s ilm=%d\n", b.routers[n].Name, b.routers[n].LFIB.ILMSize())
	}
	return sb.String()
}

// checkTEConsistent asserts what must hold of one backbone on its own after
// any reconvergence: an Up intent's LSP crosses no dead link and no customer
// node, its ledger entry is really there, its labels switch along its path
// with no local-repair detour left in them, and — the drains having run — the
// TE labels bound are exactly the transit hops of the live LSPs.
func checkTEConsistent(t *testing.T, what string, r *teRig) {
	t.Helper()
	b := r.b
	if v := b.TEScopeViolations(); len(v) != 0 {
		t.Fatalf("%s: LSPs outside the provider: %v", what, v)
	}
	if off := teLabelsOffPath(b); len(off) != 0 {
		t.Fatalf("%s: labels do not follow their LSP's path:\n%s", what, strings.Join(off, "\n"))
	}
	transit := 0
	for _, l := range b.RSVP.LSPs() {
		if l.State != rsvp.Up {
			t.Fatalf("%s: LSP %d (%s) is listed but %v", what, l.ID, l.Name, l.State)
		}
		for _, lid := range l.Path.Links {
			if b.G.Link(lid).Down {
				t.Fatalf("%s: LSP %d (%s) is Up over dead link %d", what, l.ID, l.Name, lid)
			}
		}
		transit += len(l.Path.Links) - 1
	}
	for _, req := range b.teRequests {
		if req.lsp == nil {
			continue
		}
		if held, ok := b.RSVP.Get(req.lsp.ID); !ok || held != req.lsp {
			t.Fatalf("%s: intent %s holds LSP %d, which the protocol does not", what, req.name, req.lsp.ID)
		}
	}
	if got, want := teILM(b), r.baseILM+transit; got != want {
		t.Fatalf("%s: %d ILM entries, want %d below TE + %d TE transit hops", what, got, r.baseILM, transit)
	}
}

// teLabelsOffPath walks every live LSP's labels — intents' and bypasses' —
// from the ingress entry hop by hop through the ILM tables and lists each hop
// that does not leave by the link its path names, or still carries FRR detour
// state. Between a failure and its detection a detour is local repair at
// work; once the reconvergence has run it is a leftover nobody will undo.
func teLabelsOffPath(b *Backbone) []string {
	var out []string
	for _, l := range b.RSVP.LSPs() {
		e := l.Entry
		for i, want := range l.Path.Links {
			if e.OutLink != want || e.BypassLabel != 0 {
				out = append(out, fmt.Sprintf("lsp %d %s (%s) hop %d at %s: leaves by link %d bypass label %d, path says link %d",
					l.ID, l.Name, b.pathName(l.Path), i, b.G.Name(b.G.Link(want).From), e.OutLink, e.BypassLabel, want))
				break
			}
			if e.OutLabel == packet.LabelImplicitNull {
				break
			}
			next, ok := b.routers[b.G.Link(want).To].LFIB.LookupILM(e.OutLabel)
			if !ok {
				out = append(out, fmt.Sprintf("lsp %d %s hop %d: label %d is not bound at %s", l.ID, l.Name, i+1, e.OutLabel, b.G.Name(b.G.Link(want).To)))
				break
			}
			e = next
		}
	}
	return out
}

func teILM(b *Backbone) int {
	n := 0
	for _, id := range b.providerNodes {
		n += b.routers[id].LFIB.ILMSize()
	}
	return n
}

// TestTEDeltaMatchesFullSweep is the delta's oracle. Two backbones are built
// alike; one takes every reconvergence as shipped, the twin takes it and is
// then made to release and re-signal every intent in order — the full sweep,
// whose outcome does not depend on what was held before. After every one of
// a long seeded series of overlapping link failures and restores the two
// must agree on every intent, reservation, pool, steering entry, bypass and
// ILM size; each time a sequence has restored its last link they must be
// back in the state they started in, down to the ILM entry (no label leaks,
// however many flaps went by). Capacities are loose enough in half the
// configurations that the delta always applies, and tight enough in the
// other half to force the fit fallback and outright admission failures.
func TestTEDeltaMatchesFullSweep(t *testing.T) {
	sequences := 13 // x 16 configurations: 208 random fail/restore sequences
	if testing.Short() {
		sequences = 2
	}
	var total TEResignalStats
	fits, repaired := 0, 0
	for _, ring := range []bool{false, true} {
		for _, frr := range []bool{false, true} {
			for _, dste := range []bool{false, true} {
				for _, tight := range []bool{false, true} {
					what := fmt.Sprintf("ring=%t frr=%t dste=%t tight=%t", ring, frr, dste, tight)
					build := func() *teRig {
						cfg := Config{Seed: 7, Scheduler: SchedHybrid, FRR: frr}
						if dste {
							cfg.DSTEPremiumFraction = 0.3
						}
						bw, bws := 100e6, []float64{1e6, 2e6, 3e6}
						// Tight is tuned per topology (the ring is a third the
						// size of the grid under the same two dozen intents) to
						// sit on the edge: the targets fit after some flaps and
						// not after others.
						switch {
						case tight && dste && ring:
							cfg.DSTEPremiumFraction, bws = 0.10, []float64{2e6, 3e6}
						case tight && dste:
							// Room on every link, little in the premium pool:
							// 7 Mb/s of CT1 a link, in lumps of 2 and 3.
							cfg.DSTEPremiumFraction, bws = 0.07, []float64{2e6, 3e6}
						case tight && ring:
							bw, bws = 22e6, []float64{2e6, 3e6, 4e6}
						case tight:
							bw, bws = 15e6, []float64{2e6, 3e6, 4e6}
						}
						var r *teRig
						pes := 8
						if ring {
							r, pes = teRing(cfg, 12, bw), 6
						} else {
							r = teGrid(cfg, 7, bw)
						}
						r.signalIntents(rand.New(rand.NewSource(41)), 24, pes, bws, dste)
						return r
					}
					sub, twin := build(), build()
					if len(sub.b.teRequests) < 12 {
						t.Fatalf("%s: only %d intents admitted", what, len(sub.b.teRequests))
					}
					start := teState(sub.b)
					if got := teState(twin.b); got != start {
						t.Fatalf("%s: twins differ before any fault at %s", what, diffLine(start, got))
					}
					rng := rand.New(rand.NewSource(97))
					// Detection delays and blips draw from a stream of their own,
					// so the fault sequences are the same with and without them.
					rngD := rand.New(rand.NewSource(59))
					down := map[int]bool{}
					flap := func(k int, detect sim.Time) {
						l := sub.links[k]
						for _, r := range []*teRig{sub, twin} {
							var err error
							if down[k] {
								err = r.b.RestoreLink(l[0], l[1], detect)
							} else {
								err = r.b.FailLink(l[0], l[1], detect)
							}
							if err != nil {
								t.Fatalf("%s: %v", what, err)
							}
						}
						down[k] = !down[k]
						if !down[k] {
							delete(down, k)
						}
					}
					run := func(d sim.Time) {
						sub.b.Net.RunUntil(sub.b.E.Now() + d)
						twin.b.Net.RunUntil(twin.b.E.Now() + d)
					}
					compare := func(at string) {
						twin.b.resignalTE(nil, true)
						sub.settle(t)
						twin.settle(t)
						checkTEConsistent(t, at, sub)
						checkTEConsistent(t, at+", twin", twin)
						if got, want := teState(sub.b), teState(twin.b); got != want {
							t.Fatalf("%s: delta and sweep differ at %s\nlast pass: %+v", at, diffLine(want, got), sub.b.TELast)
						}
						if sub.b.TELast.Sweeps["fit"] > 0 {
							fits++
						}
					}
					// step flaps link k, detected at once or — one time in three —
					// after 3 ms, which with FRR on is time enough for local repair
					// to detour the failed link's entries first. One time in four a
					// blip follows: another link fails and is back 2 ms later, inside
					// its own 5 ms detection window, so the reconvergence the restore
					// triggers finds the topology unchanged and the blipped link's
					// entries detoured.
					step := func(k int) {
						l := sub.links[k]
						detect := []sim.Time{0, 0, 3 * sim.Millisecond}[rngD.Intn(3)]
						flap(k, detect)
						run(detect)
						compare(fmt.Sprintf("%s after flap of %s-%s detected in %v (%d down)", what, l[0], l[1], detect, len(down)))
						j := rngD.Intn(len(sub.links))
						if rngD.Intn(4) != 0 || down[j] {
							return
						}
						l = sub.links[j]
						flap(j, 5*sim.Millisecond)
						run(2 * sim.Millisecond)
						if len(teLabelsOffPath(sub.b)) > 0 {
							repaired++
						}
						flap(j, 0)
						compare(fmt.Sprintf("%s after blip of %s-%s (%d down)", what, l[0], l[1], len(down)))
					}
					flaps := 0
					for seq := 0; seq < sequences; seq++ {
						for n := 6 + rng.Intn(5); n > 0; n-- {
							k := rng.Intn(len(sub.links))
							if !down[k] && (len(down) >= 3 || !sub.connectedWithout(down, k)) {
								// Too many down, or this one would cut the core
								// in two: restore the lowest-numbered instead.
								k = len(sub.links)
								for d := range down {
									k = min(k, d)
								}
								if k == len(sub.links) {
									continue
								}
							}
							step(k)
							flaps++
						}
						for len(down) > 0 {
							worst := -1
							for k := range down {
								if k > worst {
									worst = k
								}
							}
							step(worst)
							flaps++
						}
						if got := teState(sub.b); got != start {
							t.Fatalf("%s: sequence %d, %d flaps in, did not return to the starting state: %s",
								what, seq, flaps, diffLine(start, got))
						}
					}
					st := sub.b.TE
					if !tight && (len(st.Sweeps) != 0 || st.Failed != 0) {
						t.Errorf("%s: loose capacity fell back or failed: %+v", what, st)
					}
					if st.Kept == 0 || st.Moved+st.Resetup == 0 {
						t.Errorf("%s: the delta was never exercised: %+v", what, st)
					}
					total.Kept += st.Kept
					total.Moved += st.Moved
					total.Resetup += st.Resetup
					total.Failed += st.Failed
				}
			}
		}
	}
	if total.Moved == 0 || total.Resetup == 0 || total.Failed == 0 || fits == 0 || repaired == 0 {
		t.Errorf("not every outcome occurred: %+v, %d fit fallbacks, %d blips that local repair had detoured an LSP around", total, fits, repaired)
	}
}

// TestTESweepFallbackReasons: an intent that pins its route, carries an
// avoid set, or can preempt another takes the delta's proof away, and the
// reconvergence says which, re-signals everything, and still ends where the
// sweep does.
func TestTESweepFallbackReasons(t *testing.T) {
	for reason, opt := range map[string]func(b *Backbone) rsvp.SetupOptions{
		"explicit": func(b *Backbone) rsvp.SetupOptions {
			res := b.G.CSPF(b.mustNode("PE1"), topo.Constraints{Within: b.RSVP.Scope()})
			p, _ := res.PathTo(b.G, b.mustNode("PE4"))
			return rsvp.SetupOptions{Explicit: &p}
		},
		"avoid": func(b *Backbone) rsvp.SetupOptions {
			l, _ := b.G.FindLink(b.mustNode("P1-0"), b.mustNode("P1-1"))
			return rsvp.SetupOptions{Avoid: map[topo.LinkID]bool{l.ID: true}}
		},
		"priority": func(*Backbone) rsvp.SetupOptions { return rsvp.SetupOptions{SetupPri: 2, HoldPri: 2} },
	} {
		build := func() *Backbone {
			b := gridBackbone(Config{Seed: 5, Scheduler: SchedHybrid}, 3)
			for k, pair := range [][2]string{{"PE1", "PE2"}, {"PE3", "PE2"}, {"PE2", "PE3"}} {
				if _, err := b.SetupTELSP(fmt.Sprintf("plain%d", k), pair[0], pair[1], 1e6, -1, rsvp.SetupOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := b.SetupTELSP("odd", "PE1", "PE4", 1e6, -1, opt(b)); err != nil {
				t.Fatal(err)
			}
			return b
		}
		b, twin := build(), build()
		for _, s := range []flapStep{{a: "P0-1", z: "P0-2"}, {a: "P0-1", z: "P0-2", restore: true}} {
			s.apply(b, 0, false)
			s.apply(twin, 0, false)
			twin.resignalTE(nil, true)
			for _, bb := range []*Backbone{b, twin} { // let the moves' old labels drain
				bb.Net.RunUntil(bb.E.Now() + LSPDrainDelay + sim.Millisecond)
			}
			if b.TELast.Sweeps[reason] != 1 || b.TELast.Kept != 0 {
				t.Fatalf("%s: last pass %+v, want one full sweep for that reason", reason, b.TELast)
			}
			if got, want := teState(b), teState(twin); got != want {
				t.Fatalf("%s: fallback and sweep differ at %s", reason, diffLine(want, got))
			}
		}
	}
}

// TestTELSPNeverTransitsCustomer: a site dual-homed to PE2 and PE3 offers a
// two-hop detour between them at cost 2 where the provider's own path costs
// 4. No TE LSP, no FRR bypass and no preemption fallback may take it: the
// customer's router is not the provider's to switch labels on.
func TestTELSPNeverTransitsCustomer(t *testing.T) {
	build := func(frr bool) *Backbone {
		b := NewBackbone(Config{Seed: 130, FRR: frr})
		b.AddPE("PE1")
		b.AddP("P1")
		b.AddPE("PE2")
		b.AddPE("PE3")
		b.Link("PE1", "P1", 100e6, sim.Millisecond, 2)
		b.Link("P1", "PE2", 100e6, sim.Millisecond, 2)
		b.Link("P1", "PE3", 100e6, sim.Millisecond, 2)
		if frr {
			// A second provider way round, dearer than the stub, so that
			// PE2-P1 and P1-PE3 have a legitimate bypass to find.
			b.AddP("P2")
			b.Link("PE2", "P2", 100e6, sim.Millisecond, 5)
			b.Link("P2", "PE3", 100e6, sim.Millisecond, 5)
		}
		b.BuildProvider()
		b.DefineVPN("acme")
		b.AddSite(SiteSpec{VPN: "acme", Name: "hq", PE: "PE1",
			Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
		b.AddSite(SiteSpec{VPN: "acme", Name: "dc", PE: "PE2", BackupPE: "PE3",
			Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
		b.ConvergeVPNs()
		return b
	}

	b := build(false)
	l, err := b.SetupTELSP("t", "PE2", "PE3", 1e6, -1, rsvp.SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.pathName(l.Path); got != "PE2-P1-PE3" {
		t.Fatalf("TE LSP PE2->PE3 signalled as %s, want PE2-P1-PE3", got)
	}
	if v := b.TEScopeViolations(); len(v) != 0 {
		t.Fatalf("scope violations: %v", v)
	}
	if b.Router("ce-dc").LFIB.ILMSize() != 0 {
		t.Fatal("a provider label is bound on the customer's router")
	}

	// The preemption fallback: 90 Mb/s does not fit beside the first LSP's
	// 20, so CSPF finds nothing inside the provider (the stub's access links
	// have room) and the plain path PE2-P1-PE3 is cleared by preemption.
	b = build(false)
	if _, err := b.SetupTELSP("weak", "PE2", "PE3", 20e6, -1, rsvp.SetupOptions{SetupPri: 6, HoldPri: 6}); err != nil {
		t.Fatal(err)
	}
	strong, err := b.SetupTELSP("strong", "PE2", "PE3", 90e6, -1, rsvp.SetupOptions{SetupPri: 2, HoldPri: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.pathName(strong.Path); got != "PE2-P1-PE3" || b.RSVP.Preemptions != 1 {
		t.Fatalf("preempting LSP signalled as %s with %d preemptions, want PE2-P1-PE3 and 1", got, b.RSVP.Preemptions)
	}

	// Bypasses, at build and again after a reconvergence recomputed them.
	b = build(true)
	check := func(when string) {
		t.Helper()
		if v := b.TEScopeViolations(); len(v) != 0 {
			t.Fatalf("%s: %v", when, v)
		}
		for _, hop := range [][2]string{{"PE2", "P1"}, {"P1", "PE3"}} {
			l, _ := b.G.FindLink(b.mustNode(hop[0]), b.mustNode(hop[1]))
			byp := b.bypasses[l.ID]
			if byp == nil || byp.State != rsvp.Up {
				t.Fatalf("%s: link %s-%s has no bypass though the provider has a way round", when, hop[0], hop[1])
			}
		}
	}
	check("at build")
	if err := b.FailLink("PE1", "P1", 0); err != nil {
		t.Fatal(err)
	}
	check("after a flap")
}

// TestCleanLSPLosesNothing: a fault somewhere else is somebody else's. A
// CBR flow rides a TE LSP along the top of the grid while a link at the
// bottom fails and comes back; the flow loses no packet and its LSP keeps
// its ID, its labels and its steering entry through both reconvergences.
func TestCleanLSPLosesNothing(t *testing.T) {
	b := gridBackbone(Config{Seed: 9, Scheduler: SchedHybrid}, 3)
	gridSites(b, 4)
	lsp, err := b.SetupTELSPForVPN("top", "PE1", "PE2", "v", 5e6, -1, rsvp.SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.pathName(lsp.Path); got != "PE1-P0-0-P0-1-P0-2-PE2" {
		t.Fatalf("LSP path %s: the scenario assumes the top row", got)
	}
	id, entry := lsp.ID, lsp.Entry
	dst, _ := b.SiteAddr("s1")
	if tr := b.TraceRoute("s0", dst, 0); !tr.Delivered || len(tr.Hops) < 2 || tr.Hops[1].Stack.Top().Label != entry.OutLabel {
		t.Fatalf("s0 -> s1 does not enter the LSP (push %d):\n%s", entry.OutLabel, tr)
	}

	f, err := b.FlowBetween("f", "s0", "s1", 5060)
	if err != nil {
		t.Fatal(err)
	}
	trafgen.CBR(b.Net, f, 200, sim.Millisecond, 0, 200*sim.Millisecond)
	b.E.Schedule(50*sim.Millisecond, func() { b.FailLink("P2-0", "P2-1", 5*sim.Millisecond) })
	b.E.Schedule(120*sim.Millisecond, func() { b.RestoreLink("P2-0", "P2-1", 5*sim.Millisecond) })
	b.Net.RunUntil(300 * sim.Millisecond)

	if f.Stats.Sent < 190 || f.Stats.Delivered != f.Stats.Sent {
		t.Fatalf("flow on a clean LSP: sent %d delivered %d", f.Stats.Sent, f.Stats.Delivered)
	}
	held := b.teRequests[0].lsp
	if held == nil || held.ID != id || held.Entry != entry || held.State != rsvp.Up {
		t.Fatalf("LSP after two faults elsewhere: %+v, want ID %d entry %+v untouched", held, id, entry)
	}
	if got := b.routers[b.mustNode("PE1")].TE[teKeyFor(b.teRequests[0])]; got != entry {
		t.Fatalf("steering entry %+v, want %+v", got, entry)
	}
	if b.TE.Reconvergences != 2 || b.TE.Kept != 2 || b.TE.Moved+b.TE.Resetup+b.TE.Failed != 0 || len(b.TE.Sweeps) != 0 {
		t.Fatalf("counters %+v, want two reconvergences that each kept the one intent", b.TE)
	}
	for _, n := range []string{"P0-0", "P0-1", "P0-2"} {
		if b.Router(n).DroppedNoLabel != 0 {
			t.Fatalf("%s dropped %d packets for a missing label", n, b.Router(n).DroppedNoLabel)
		}
	}
}

// TestLocalRepairSkipsRestoredLink: a link that fails and is back before
// its point of local repair has acted (LocalRepairDelay) is not gone around
// when the repair timer fires — the restore's reconvergence has already run,
// and no later one would take the detour out again.
func TestLocalRepairSkipsRestoredLink(t *testing.T) {
	b := gridBackbone(Config{Seed: 17, Scheduler: SchedHybrid, FRR: true}, 3)
	if _, err := b.SetupTELSP("te-mid", "P1-0", "P1-2", 1e6, -1, rsvp.SetupOptions{}); err != nil {
		t.Fatal(err)
	}
	b.E.Schedule(10*sim.Millisecond, func() { b.FailLink("P1-1", "P1-2", 5*sim.Millisecond) })
	b.E.Schedule(10*sim.Millisecond+LocalRepairDelay/2, func() { b.RestoreLink("P1-1", "P1-2", 0) })
	b.Net.RunUntil(20 * sim.Millisecond)
	off := append(teLabelsOffPath(b), ldpDetours(b, b.mustNode("P1-1"))...)
	if off = append(off, ldpDetours(b, b.mustNode("P1-2"))...); len(off) != 0 {
		t.Fatalf("local repair went around a link that was already back:\n%s", strings.Join(off, "\n"))
	}
}

// TestOverlappingDetectionWindowsReconvergeOnce: two failures 2 ms apart,
// each detected after 5 ms, arm two timers. The first reconverges for both
// by delta; the second finds nothing queued and must leave the network
// alone — it used to rebuild every label table. The outcome equals that of
// the same failures 50 ms apart, LSP IDs and TE label values apart (an
// intent dirtied twice is re-signalled once here, twice there), and a
// checkpoint cut between the two timers resumes to the same end.
func TestOverlappingDetectionWindowsReconvergeOnce(t *testing.T) {
	const detect = 5 * sim.Millisecond
	build := func(gap sim.Time) *Backbone {
		b := gridBackbone(Config{Seed: 13, Scheduler: SchedHybrid}, 3)
		gridSites(b, 4)
		b.EnableTelemetry(TelemetryOptions{JournalCap: 256})
		for k, pair := range [][2]string{{"PE1", "PE4"}, {"PE2", "PE3"}, {"PE1", "PE2"}} {
			if _, err := b.SetupTELSP(fmt.Sprintf("te%d", k), pair[0], pair[1], 1e6, -1, rsvp.SetupOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		b.E.Schedule(10*sim.Millisecond, func() { b.FailLink("P0-0", "P0-1", detect) })
		b.E.Schedule(10*sim.Millisecond+gap, func() { b.FailLink("P1-1", "P1-2", detect) })
		b.E.MarkSetup()
		return b
	}
	ldpLabels := func(b *Backbone) string {
		var sb strings.Builder
		for _, n := range b.providerNodes {
			for _, d := range b.providerNodes {
				if l, ok := b.LDP.Speaker(n).LocalBinding(addr.HostPrefix(ospf.Loopback(d))); ok {
					fmt.Fprintf(&sb, "%d/%d=%d ", n, d, l)
				}
			}
		}
		return sb.String()
	}
	end := func(b *Backbone) string {
		b.Net.RunUntil(200 * sim.Millisecond)
		var sb strings.Builder
		sb.WriteString(teState(b))
		sb.WriteString(ldpLabels(b))
		for _, n := range b.providerNodes {
			fmt.Fprintf(&sb, "\n%s ftn=%d", b.routers[n].Name, b.routers[n].FTN.Size())
		}
		return sb.String()
	}

	b := build(2 * sim.Millisecond)
	full, labels := b.IGP.FullSPFRuns, ldpLabels(b)
	b.Net.RunUntil(16 * sim.Millisecond) // the first timer has fired, the second has not
	if len(b.pendingLinks) != 0 || b.TE.Reconvergences != 1 {
		t.Fatalf("at 16 ms: %d flaps queued, %d reconvergences; want the first timer to have taken both", len(b.pendingLinks), b.TE.Reconvergences)
	}
	data, err := b.Snapshot("overlap")
	if err != nil {
		t.Fatal(err)
	}
	got := end(b)
	if b.IGP.FullSPFRuns != full || ldpLabels(b) != labels || b.TE.Reconvergences != 1 {
		t.Fatalf("the overtaken timer did not stand down: %d full SPF runs (was %d), %d TE passes, LDP labels moved: %t",
			b.IGP.FullSPFRuns, full, b.TE.Reconvergences, ldpLabels(b) != labels)
	}
	if j := b.tel.Journal.Render(); strings.Count(j, "nothing queued") != 1 {
		t.Fatalf("journal does not record exactly one overtaken timer:\n%s", j)
	}
	if want := end(build(50 * sim.Millisecond)); got != want {
		t.Fatalf("overlapping and spaced failures end differently at %s", diffLine(want, got))
	}
	resumed := build(2 * sim.Millisecond)
	if err := resumed.Restore(data, "overlap"); err != nil {
		t.Fatal(err)
	}
	if again := end(resumed); again != got || resumed.StateDigest() != b.StateDigest() {
		t.Fatalf("run resumed between the two timers diverged at %s", diffLine(got, again))
	}
}
