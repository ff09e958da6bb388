package bgp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
)

func vpnRT(v int) addr.RouteTarget { return addr.RouteTarget{Admin: 65000, Assigned: uint32(v)} }
func vpnRD(v int) addr.RouteDistinguisher {
	return addr.RouteDistinguisher{Admin: 65000, Assigned: uint32(v)}
}

// TestClusteredReflectionBasics: stamping, RT-constrained delivery, loop
// prevention among redundant reflectors, and the session-count formula.
func TestClusteredReflectionBasics(t *testing.T) {
	m := NewMesh()
	// PEs 1..4, reflectors 100..103; two clusters of two RRs each.
	for _, n := range []topo.NodeID{1, 2, 3, 4, 100, 101, 102, 103} {
		m.AddSpeaker(n, Loopback(n))
	}
	m.UseClusters([]Cluster{
		{ID: 10, RRs: []topo.NodeID{100, 101}, Clients: []topo.NodeID{1, 2}},
		{ID: 20, RRs: []topo.NodeID{102, 103}, Clients: []topo.NodeID{3, 4}},
	})
	if got, want := m.SessionCount(), 2*2+2*2+4*3/2; got != want {
		t.Fatalf("SessionCount = %d, want %d", got, want)
	}

	// PE 1 and PE 3 serve VPN 1; PE 2 and PE 4 serve VPN 2.
	vrf := map[topo.NodeID]int{1: 1, 2: 2, 3: 1, 4: 2}
	for pe, v := range vrf {
		s, _ := m.Speaker(pe)
		rt := vpnRT(v)
		s.Filter = func(r *VPNRoute) bool { return r.HasRT(rt) }
		m.SetRTInterest(pe, []addr.RouteTarget{rt})
		s.Originate(&VPNRoute{
			Prefix:    addr.VPNPrefix{RD: vpnRD(v), Prefix: addr.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", v, pe))},
			NextHop:   Loopback(pe),
			Label:     packet.Label(1000 + pe),
			RTs:       []addr.RouteTarget{rt},
			LocalPref: 100,
			OriginPE:  pe,
		})
	}
	m.Converge()

	// Cross-cluster VPN-1 route must arrive at PE 1 stamped with its
	// originator and origin cluster.
	s1, _ := m.Speaker(1)
	p3 := addr.VPNPrefix{RD: vpnRD(1), Prefix: addr.MustParsePrefix("10.1.3.0/24")}
	r, ok := s1.Best(p3)
	if !ok {
		t.Fatal("PE1 missing PE3's VPN-1 route")
	}
	if refl := r.Reflected; refl == nil || refl.OriginatorID != 3 || len(refl.ClusterList) != 1 || refl.ClusterList[0] != 20 {
		t.Fatalf("bad stamping: %+v", refl)
	}
	// RT-constrained distribution: PE1 must never even be offered VPN-2
	// routes (the reflector filters sender-side), so Received counts only
	// VPN-1 traffic: one local cluster sibling is absent (PE2 is VPN-2),
	// so PE1 is offered PE3's route from each of its two reflectors.
	if s1.Received != 2 {
		t.Fatalf("PE1 Received = %d, want 2 (RT-constrained)", s1.Received)
	}
	if _, ok := s1.Best(addr.VPNPrefix{RD: vpnRD(2), Prefix: addr.MustParsePrefix("10.2.2.0/24")}); ok {
		t.Fatal("PE1 holds a VPN-2 route")
	}
	// Redundant reflectors bounce each other's stamped copies.
	if m.LoopPrevented == 0 {
		t.Fatal("no loop prevention exercised with redundant reflectors")
	}
}

// churnRig drives a clustered mesh and a full-mesh twin through identical
// event sequences; PEs' loc-RIBs must stay identical throughout.
type churnRig struct {
	t      *testing.T
	seed   int64
	full   *Mesh
	clus   *Mesh
	pes    []topo.NodeID
	rrs    []topo.NodeID
	byPE   map[topo.NodeID][]*VPNRoute // identical exports fed to both meshes
	now    sim.Time
	rounds int
}

func Loopback(n topo.NodeID) addr.IPv4 {
	return addr.IPv4(uint32(addr.MustParseIPv4("10.255.0.0")) + uint32(n))
}

func newChurnRig(t *testing.T, seed int64) *churnRig {
	rig := &churnRig{t: t, seed: seed, full: NewMesh(), clus: NewMesh(), byPE: map[topo.NodeID][]*VPNRoute{}}
	rng := rand.New(rand.NewSource(seed))

	const nPE, nVPN = 12, 4
	for pe := topo.NodeID(0); pe < nPE; pe++ {
		rig.pes = append(rig.pes, pe)
	}
	rig.rrs = []topo.NodeID{100, 101, 102, 103}
	for _, n := range append(append([]topo.NodeID{}, rig.pes...), rig.rrs...) {
		rig.full.AddSpeaker(n, Loopback(n))
		rig.clus.AddSpeaker(n, Loopback(n))
	}
	rig.clus.UseClusters([]Cluster{
		{ID: 1, RRs: []topo.NodeID{100, 101}, Clients: rig.pes[:6]},
		{ID: 2, RRs: []topo.NodeID{102, 103}, Clients: rig.pes[6:]},
	})

	damp := DampingConfig{Penalty: 1000, Suppress: 2000, Reuse: 750, HalfLife: 10 * sim.Second}
	for _, m := range []*Mesh{rig.full, rig.clus} {
		m.SetClock(func() sim.Time { return rig.now })
		m.SetDamping(damp)
	}

	for _, pe := range rig.pes {
		vpns := []int{int(pe) % nVPN, (int(pe) + 1) % nVPN}
		var rts []addr.RouteTarget
		for _, v := range vpns {
			rts = append(rts, vpnRT(v))
		}
		for _, m := range []*Mesh{rig.full, rig.clus} {
			s, _ := m.Speaker(pe)
			mine := append([]addr.RouteTarget(nil), rts...)
			s.Filter = func(r *VPNRoute) bool {
				for _, rt := range mine {
					if r.HasRT(rt) {
						return true
					}
				}
				return false
			}
		}
		rig.clus.SetRTInterest(pe, rts)
		for _, v := range vpns {
			for i := 0; i < 2; i++ {
				r := &VPNRoute{
					Prefix:    addr.VPNPrefix{RD: vpnRD(v), Prefix: addr.MustParsePrefix(fmt.Sprintf("10.%d.%d.%d/32", v, pe, i))},
					NextHop:   Loopback(pe),
					Label:     packet.Label(100 + rng.Intn(900)),
					RTs:       []addr.RouteTarget{vpnRT(v)},
					LocalPref: 100 + 5*rng.Intn(3),
					ASPathLen: 1 + rng.Intn(3),
					OriginPE:  pe,
				}
				rig.byPE[pe] = append(rig.byPE[pe], r)
			}
			// A contended anycast prefix per VPN: every serving PE exports
			// it, so best-path selection has real work to do.
			r := &VPNRoute{
				Prefix:    addr.VPNPrefix{RD: vpnRD(v), Prefix: addr.MustParsePrefix(fmt.Sprintf("10.%d.255.0/24", v))},
				NextHop:   Loopback(pe),
				Label:     packet.Label(100 + rng.Intn(900)),
				RTs:       []addr.RouteTarget{vpnRT(v)},
				LocalPref: 100 + 5*rng.Intn(3),
				ASPathLen: 1 + rng.Intn(3),
				OriginPE:  pe,
			}
			rig.byPE[pe] = append(rig.byPE[pe], r)
		}
		for _, r := range rig.byPE[pe] {
			fs, _ := rig.full.Speaker(pe)
			cs, _ := rig.clus.Speaker(pe)
			fs.Originate(r)
			cs.Originate(r)
		}
	}
	rig.converge()
	return rig
}

func (rig *churnRig) converge() {
	rig.full.Converge()
	rig.clus.Converge()
	rig.compare()
}

// compare asserts every PE's loc-RIB and stale ledger agree between the
// two layouts on the attributes forwarding depends on.
func (rig *churnRig) compare() {
	rig.t.Helper()
	rig.rounds++
	for _, pe := range rig.pes {
		fs, _ := rig.full.Speaker(pe)
		cs, _ := rig.clus.Speaker(pe)
		fb, cb := fs.BestRoutes(), cs.BestRoutes()
		if len(fb) != len(cb) {
			rig.t.Fatalf("seed %d round %d PE %d: loc-RIB size full=%d clustered=%d",
				rig.seed, rig.rounds, pe, len(fb), len(cb))
		}
		for i := range fb {
			f, c := fb[i], cb[i]
			if f.Prefix != c.Prefix || f.NextHop != c.NextHop || f.Label != c.Label ||
				f.LocalPref != c.LocalPref || f.ASPathLen != c.ASPathLen || f.OriginPE != c.OriginPE {
				rig.t.Fatalf("seed %d round %d PE %d: best-path divergence\n full:      %+v\n clustered: %+v",
					rig.seed, rig.rounds, pe, f, c)
			}
		}
		if fs.StaleRoutes() != cs.StaleRoutes() {
			rig.t.Fatalf("seed %d round %d PE %d: stale full=%d clustered=%d",
				rig.seed, rig.rounds, pe, fs.StaleRoutes(), cs.StaleRoutes())
		}
	}
}

// TestClusteredEquivalenceUnderChurn is the reflection oracle: across
// seeded random churn — PE session flaps (graceful and hard, sometimes
// with a config change while down), single-reflector outages, prefix
// flaps driving the damping ledger, and decay epochs — every PE's
// selected best paths in the clustered mesh must equal the full-mesh
// oracle after every convergence.
func TestClusteredEquivalenceUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn oracle is the long reflection proof; test-race and verify-controlplane run it explicitly")
	}
	totalSuppressed := 0
	for seed := int64(1); seed <= 3; seed++ {
		rig := newChurnRig(t, seed)
		rng := rand.New(rand.NewSource(seed * 7919))
		both := []*Mesh{rig.full, rig.clus}
		for ev := 0; ev < 40; ev++ {
			switch rng.Intn(4) {
			case 0: // PE session flap
				pe := rig.pes[rng.Intn(len(rig.pes))]
				graceful := rng.Intn(2) == 0
				for _, m := range both {
					m.SessionDown(pe, graceful)
				}
				rig.converge()
				var dropped *VPNRoute
				if graceful && rng.Intn(2) == 0 && len(rig.byPE[pe]) > 1 {
					// Config change during restart: one prefix is gone when
					// the session returns, so the sweep has work to do.
					i := rng.Intn(len(rig.byPE[pe]))
					dropped = rig.byPE[pe][i]
					rig.byPE[pe] = append(rig.byPE[pe][:i], rig.byPE[pe][i+1:]...)
					for _, m := range both {
						s, _ := m.Speaker(pe)
						s.WithdrawLocal(dropped.Prefix)
					}
				}
				for _, m := range both {
					m.SessionUp(pe)
				}
				rig.converge()
				for _, m := range both {
					m.SweepStale(pe)
				}
				rig.compare()
				if dropped != nil { // restore for later rounds
					rig.byPE[pe] = append(rig.byPE[pe], dropped)
					for _, m := range both {
						s, _ := m.Speaker(pe)
						s.Originate(dropped)
					}
					rig.converge()
				}
			case 1: // single-reflector outage: redundancy must hide it
				rr := rig.rrs[rng.Intn(len(rig.rrs))]
				rig.clus.SessionDown(rr, rng.Intn(2) == 0)
				rig.converge()
				rig.clus.SessionUp(rr)
				rig.converge()
				rig.clus.SweepStale(rr)
				rig.compare()
			case 2: // prefix flap: withdraw, converge, re-announce
				pe := rig.pes[rng.Intn(len(rig.pes))]
				r := rig.byPE[pe][rng.Intn(len(rig.byPE[pe]))]
				for _, m := range both {
					s, _ := m.Speaker(pe)
					s.WithdrawLocal(r.Prefix)
				}
				rig.converge()
				for _, m := range both {
					s, _ := m.Speaker(pe)
					s.Originate(r)
				}
				rig.converge()
			default: // time passes; damping decays and reuses
				rig.now += sim.Time(1+rng.Intn(8)) * sim.Second
				for _, m := range both {
					m.DecayDamping(rig.now)
				}
				rig.compare()
			}
		}
		if rig.clus.LoopPrevented == 0 {
			t.Fatalf("seed %d: loop prevention never exercised", seed)
		}
		if rig.clus.RouteSuppressions != rig.full.RouteSuppressions {
			t.Fatalf("seed %d: suppression divergence (full %d, clustered %d)",
				seed, rig.full.RouteSuppressions, rig.clus.RouteSuppressions)
		}
		totalSuppressed += rig.clus.RouteSuppressions
		if rig.clus.SessionCount() >= rig.full.SessionCount() {
			t.Fatalf("seed %d: clustered sessions %d not below full mesh %d",
				seed, rig.clus.SessionCount(), rig.full.SessionCount())
		}
	}
	if totalSuppressed == 0 {
		t.Fatal("damping never suppressed across any seed")
	}
}

// TestRTConstrainedUpdateVolume: declaring interests must cut update
// volume without changing any PE's selected routes.
func TestRTConstrainedUpdateVolume(t *testing.T) {
	build := func(constrained bool) *Mesh {
		m := NewMesh()
		var pes []topo.NodeID
		for pe := topo.NodeID(0); pe < 8; pe++ {
			pes = append(pes, pe)
			m.AddSpeaker(pe, Loopback(pe))
		}
		m.AddSpeaker(100, Loopback(100))
		m.AddSpeaker(101, Loopback(101))
		m.UseClusters([]Cluster{
			{ID: 1, RRs: []topo.NodeID{100}, Clients: pes[:4]},
			{ID: 2, RRs: []topo.NodeID{101}, Clients: pes[4:]},
		})
		for _, pe := range pes {
			v := int(pe) % 4
			rt := vpnRT(v)
			s, _ := m.Speaker(pe)
			s.Filter = func(r *VPNRoute) bool { return r.HasRT(rt) }
			if constrained {
				m.SetRTInterest(pe, []addr.RouteTarget{rt})
			}
			s.Originate(&VPNRoute{
				Prefix:    addr.VPNPrefix{RD: vpnRD(v), Prefix: addr.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", v, pe))},
				NextHop:   Loopback(pe),
				Label:     packet.Label(500 + pe),
				RTs:       []addr.RouteTarget{rt},
				LocalPref: 100,
				OriginPE:  pe,
			})
		}
		m.Converge()
		return m
	}
	open := build(false)
	tight := build(true)
	if tight.UpdatesSent >= open.UpdatesSent {
		t.Fatalf("RT constraint did not cut updates: %d vs %d", tight.UpdatesSent, open.UpdatesSent)
	}
	for pe := topo.NodeID(0); pe < 8; pe++ {
		so, _ := open.Speaker(pe)
		st, _ := tight.Speaker(pe)
		ro, rt := so.BestRoutes(), st.BestRoutes()
		if len(ro) != len(rt) {
			t.Fatalf("PE %d: loc-RIB size open=%d constrained=%d", pe, len(ro), len(rt))
		}
		for i := range ro {
			if ro[i].Prefix != rt[i].Prefix || ro[i].NextHop != rt[i].NextHop {
				t.Fatalf("PE %d: route divergence %v vs %v", pe, ro[i], rt[i])
			}
		}
	}
}

// TestSelectForMatchesScan fills one route-target index over and over, as a
// round does for each phase and cluster, with senders whose routes carry no
// target, one or three: mostly in runs of one target, which the fill files
// without hashing, broken by runs of another target, by untagged routes and
// by routes with three targets, among them the open run's. Every sender's
// selection for every interest list must be what a plain scan of its routes
// offers (offer): interest order, then send order, untagged last, each
// route once.
func TestSelectForMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	rts := []addr.RouteTarget{vpnRT(0), vpnRT(1), vpnRT(2), vpnRT(3), vpnRT(4)}
	interests := [][]addr.RouteTarget{nil, {vpnRT(9)}}
	for i, a := range rts {
		interests = append(interests, []addr.RouteTarget{a}, []addr.RouteTarget{a, rts[(i+2)%len(rts)]}, []addr.RouteTarget{rts[(i+2)%len(rts)], a})
	}
	interests = append(interests, rts, []addr.RouteTarget{rts[4], rts[2], rts[0]})
	m, label := NewMesh(), 0
	route := func(origin topo.NodeID, prev []addr.RouteTarget) *VPNRoute {
		label++
		r := &VPNRoute{
			Prefix:   addr.VPNPrefix{RD: vpnRD(int(origin)), Prefix: addr.NewPrefix(addr.IPv4(0x0a000000+uint32(label)<<8), 24)},
			Label:    packet.Label(label),
			OriginPE: origin,
		}
		switch k := rng.Intn(10); {
		case k < 5 && len(prev) == 1:
			r.RTs = prev // the open run goes on
		case k < 8:
			r.RTs = []addr.RouteTarget{rts[rng.Intn(len(rts))]}
		case k == 8:
			perm := rng.Perm(len(rts))
			r.RTs = []addr.RouteTarget{rts[perm[0]], rts[perm[1]], rts[perm[2]]}
		}
		return r
	}
	var ix rtIndex
	for fill := 0; fill < 40; fill++ {
		senders := make([]topo.NodeID, 1+rng.Intn(4))
		keep := func(r *VPNRoute) bool { return r.Label%3 != 0 }
		offered := make([][]*VPNRoute, len(senders))
		for k := range senders {
			n := topo.NodeID(100*fill + k)
			senders[k] = n
			s := m.AddSpeaker(n, 0)
			var prev []addr.RouteTarget
			for e := rng.Intn(6); e > 0; e-- {
				r := route(n, prev)
				s.Originate(r)
				offered[k], prev = append(offered[k], r), r.RTs
			}
			for p := rng.Intn(40); p > 0; p-- {
				r := route(topo.NodeID(rng.Intn(9)), prev)
				s.rib.paths = append(s.rib.paths, m.add(r))
				if fill%2 == 0 || keep(r) {
					offered[k] = append(offered[k], r)
				}
				prev = r.RTs
			}
		}
		ix.reset(m, senders)
		for _, n := range senders {
			if fill%2 == 0 {
				ix.add(m.speakers[n], nil)
			} else {
				ix.add(m.speakers[n], keep)
			}
		}
		for k, n := range senders {
			for _, interest := range interests {
				got, want := m.speakers[n].resolve(ix.selectFor(k, interest)), offer(offered[k], interest)
				if !slices.Equal(got, want) {
					t.Fatalf("fill %d, sender %d of %d, interest %v: selectFor offers %d routes %v, a scan of the sender's routes %d %v",
						fill, k, len(senders), interest, len(got), got, len(want), want)
				}
			}
		}
	}
}
