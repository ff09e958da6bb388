package experiments

import (
	"fmt"
	"runtime"
	"time"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/bgp"
	"mplsvpn/internal/ospf"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/stats"
	"mplsvpn/internal/topo"
)

// E20 scales the control plane to the paper's §5 horizon: a backbone whose
// VPN-IPv4 table holds a million routes. Two mechanisms carry the load.
// Clustered route reflection (RFC 4456) with sender-side RT-constrained
// distribution replaces the O(PE²) iBGP full mesh with O(PE·clusters)
// sessions, and update volume proportional to real imports. Incremental
// SPF/CSPF (Ramalingam–Reps dynamic shortest paths) turns the IGP's
// every-event full recompute into a delta bounded by the affected region.
//
// The experiment has three tiers:
//
//   - A layout-comparison sweep at mesh sizes where the full mesh is still
//     computable, proving the clustered best paths identical to the
//     full-mesh oracle while sessions and convergence wall time collapse.
//   - The headline build: 10,000 PEs in 100 clusters, 1,000 VPNs, one
//     million VPN-IPv4 routes, converged once through the reflectors with
//     RT-constrained distribution, recording sessions, update count, wall
//     time, and resident bytes per route.
//   - The IGP tier: a 24x24 grid domain processing single-link metric
//     events through incremental SPF vs the full-recompute baseline, and
//     the TE analogue (per-ingress incremental CSPF vs from-scratch CSPF)
//     across reservation changes, each checked against its oracle.

// E20Result carries the scaling numbers and the gate scalars.
type E20Result struct {
	Comparison *stats.Table // full mesh vs clustered at computable sizes
	Headline   *stats.Table // the million-route build
	ISPF       *stats.Table // incremental vs full SPF/CSPF

	// Headline-tier gate inputs.
	HeadlinePEs, HeadlineVPNs, HeadlineRoutes int
	SessionsClustered                         int     // measured at headline size
	SessionsFullMesh                          int     // analytic N(N-1)/2 at headline size
	HeadlineConvergeSec                       float64 // wall time of the clustered converge
	HeadlineUpdates                           int     // RT-constrained update transmissions
	LoopPrevented                             int     // reflection loop drops during converge
	BytesPerRoute                             float64 // resident heap growth / routes

	// MeshEquivalent reports whether every comparison-tier client computed
	// byte-identical best paths under both layouts.
	MeshEquivalent bool

	// IGP-tier gate inputs: wall-time ratios full/incremental and the
	// oracle verdicts (incremental result == full recompute, every event).
	ISPFSpeedup, ICSPFSpeedup   float64
	ISPFOracleOK, ICSPFOracleOK bool
}

// e20VPN assigns PE p its VPN: ten consecutive PEs share a "home" VPN
// (regional locality, the common case), and every tenth PE is instead a
// remote site of a pseudo-random VPN — the hub-and-branch shape that forces
// real cross-cluster reflection without quadratic RT overlap.
func e20VPN(p, vpns int) int {
	if p%10 == 9 {
		return (p*7919 + 13) % vpns
	}
	return (p / 10) % vpns
}

func e20RT(vpn int) addr.RouteTarget {
	return addr.RouteTarget{Admin: 65000, Assigned: uint32(vpn)}
}

// e20Mesh builds a mesh of pes client speakers originating rpp routes each
// across vpns VPNs, with import filters matching each PE's VPN. When
// clusterSize > 0 the mesh runs clustered reflection: dedicated reflector
// nodes (IDs above the client range) are added two per cluster and every
// client declares its RT interest. Returns the mesh and the total originated
// route count.
func e20Mesh(pes, vpns, rpp, clusterSize int) (*bgp.Mesh, int) {
	m := bgp.NewMesh()
	routes := 0
	for p := 0; p < pes; p++ {
		sp := m.AddSpeaker(topo.NodeID(p), addr.IPv4(0xac000000+uint32(p)))
		rt := e20RT(e20VPN(p, vpns))
		sp.Filter = func(r *bgp.VPNRoute) bool { return r.HasRT(rt) }
		for r := 0; r < rpp; r++ {
			sp.Originate(&bgp.VPNRoute{
				Prefix: addr.VPNPrefix{
					RD:     addr.RouteDistinguisher{Admin: 65000, Assigned: rt.Assigned},
					Prefix: addr.NewPrefix(addr.IPv4(uint32(p)<<8|uint32(r)), 32),
				},
				NextHop:  addr.IPv4(0xac000000 + uint32(p)),
				Label:    packet.Label(16 + p),
				RTs:      []addr.RouteTarget{rt},
				OriginPE: topo.NodeID(p),
			})
			routes++
		}
	}
	if clusterSize > 0 {
		nClusters := (pes + clusterSize - 1) / clusterSize
		clusters := make([]bgp.Cluster, 0, nClusters)
		for c := 0; c < nClusters; c++ {
			cl := bgp.Cluster{ID: uint32(c + 1)}
			for rr := 0; rr < 2; rr++ {
				n := topo.NodeID(pes + 2*c + rr)
				m.AddSpeaker(n, addr.IPv4(0xad000000+uint32(2*c+rr)))
				cl.RRs = append(cl.RRs, n)
			}
			for p := c * clusterSize; p < (c+1)*clusterSize && p < pes; p++ {
				cl.Clients = append(cl.Clients, topo.NodeID(p))
			}
			clusters = append(clusters, cl)
		}
		m.UseClusters(clusters)
		for p := 0; p < pes; p++ {
			m.SetRTInterest(topo.NodeID(p), []addr.RouteTarget{e20RT(e20VPN(p, vpns))})
		}
	}
	return m, routes
}

// e20BestPathsEqual compares every client's best paths between two meshes.
func e20BestPathsEqual(a, b *bgp.Mesh, pes int) bool {
	for p := 0; p < pes; p++ {
		sa, _ := a.Speaker(topo.NodeID(p))
		sb, _ := b.Speaker(topo.NodeID(p))
		ra, rb := sa.BestRoutes(), sb.BestRoutes()
		if len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if ra[i].Prefix != rb[i].Prefix || ra[i].NextHop != rb[i].NextHop ||
				ra[i].Label != rb[i].Label || ra[i].OriginPE != rb[i].OriginPE {
				return false
			}
		}
	}
	return true
}

// e20Grid builds a w x h grid graph with deterministic metric variety.
func e20Grid(w, h int) *topo.Graph {
	g := topo.New()
	id := func(i, j int) topo.NodeID { return topo.NodeID(i*w + j) }
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			g.AddNode(fmt.Sprintf("n%d-%d", i, j))
		}
	}
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			if j+1 < w {
				g.AddDuplexLink(id(i, j), id(i, j+1), 1e9, sim.Millisecond, 1+(i*7+j*3)%4)
			}
			if i+1 < h {
				g.AddDuplexLink(id(i, j), id(i+1, j), 1e9, sim.Millisecond, 1+(i*5+j*11)%4)
			}
		}
	}
	return g
}

// e20Rand is a tiny deterministic PRNG (xorshift64) so the event sequence
// is identical on every run without importing a seeded source.
type e20Rand uint64

func (r *e20Rand) next(n int) int {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = e20Rand(x)
	return int(x % uint64(n))
}

// e20ISPFTier measures incremental SPF against the full-recompute baseline:
// two IGP domains over the same side x side grid (one with ISPF disabled —
// the oracle knob) process the same single-link metric events; per-event
// wall time is accumulated per domain and the routing tables compared after
// every event. The measured ratio grows with the grid because the full
// baseline pays O(N^2) per router per event while the incremental side pays
// only for the affected region, so the headline number comes from the big
// grid in the perf suite; the unit tier runs a small grid for speed.
func e20ISPFTier(events, side int) (speedup float64, oracleOK bool) {
	g := e20Grid(side, side)
	incr := ospf.NewDomain(g)
	full := ospf.NewDomain(g)
	full.DisableISPF = true
	incr.Converge()
	full.Converge()

	rng := e20Rand(0x9e3779b97f4a7c15)
	n := g.NumNodes()
	var tIncr, tFull time.Duration
	oracleOK = true
	for e := 0; e < events; e++ {
		// Pick a live directed link and bump its metric (both directions, as
		// a real IGP metric change would).
		var l *topo.Link
		for {
			l = g.Link(topo.LinkID(rng.next(g.NumLinks())))
			if !l.Down {
				break
			}
		}
		delta := 1 + rng.next(3)
		if l.Metric > 4 {
			delta = -delta
		}
		l.Metric += delta
		if rev, ok := g.FindLink(l.To, l.From); ok {
			rev.Metric = l.Metric
		}
		a, b := l.From, l.To

		t0 := time.Now()
		incr.NotifyLinkChange(a, b)
		tIncr += time.Since(t0)
		t0 = time.Now()
		full.NotifyLinkChange(a, b)
		tFull += time.Since(t0)

		for src := 0; src < n; src += 37 { // sampled oracle check
			ii := incr.Instance(topo.NodeID(src))
			fi := full.Instance(topo.NodeID(src))
			for dst := 0; dst < n; dst++ {
				ri, oki := ii.RouteTo(topo.NodeID(dst))
				rf, okf := fi.RouteTo(topo.NodeID(dst))
				if oki != okf || (oki && (ri.Metric != rf.Metric || ri.NextHop != rf.NextHop)) {
					oracleOK = false
				}
			}
		}
	}
	if incr.ISPFRuns == 0 {
		oracleOK = false // the incremental path never engaged
	}
	return float64(tFull) / float64(tIncr), oracleOK
}

// e20ICSPFTier is the TE analogue: per-ingress incremental CSPF trackers
// fold single-link reservation changes while the baseline recomputes each
// ingress from scratch, with the trackers' trees checked against fresh CSPF.
func e20ICSPFTier(events, ingresses int) (speedup float64, oracleOK bool) {
	g := e20Grid(24, 24)
	c := topo.Constraints{MinAvailableBw: 5e8}
	track := make([]*topo.IncrementalSPF, ingresses)
	srcs := make([]topo.NodeID, ingresses)
	for i := range track {
		srcs[i] = topo.NodeID((i * 9) % g.NumNodes())
		track[i] = topo.NewIncrementalSPF(g, srcs[i], c)
	}

	rng := e20Rand(0x2545f4914f6cdd1d)
	var tIncr, tFull time.Duration
	oracleOK = true
	for e := 0; e < events; e++ {
		lid := topo.LinkID(rng.next(g.NumLinks()))
		l := g.Link(lid)
		// Toggle the reservation across the constraint threshold: the TE
		// admission event that flips link eligibility.
		if l.ReservedBw > 0 {
			l.ReservedBw = 0
		} else {
			l.ReservedBw = 8e8
		}

		t0 := time.Now()
		for _, tr := range track {
			tr.ApplyLinkChange(lid)
		}
		tIncr += time.Since(t0)

		t0 = time.Now()
		fresh := make([]*topo.SPFResult, len(track))
		for i := range track {
			fresh[i] = g.CSPF(srcs[i], c)
		}
		tFull += time.Since(t0)

		if e%8 == 0 { // sampled oracle check
			for i, tr := range track {
				got := tr.Result()
				for v := range fresh[i].Dist {
					if got.Dist[v] != fresh[i].Dist[v] || got.Prev[v] != fresh[i].Prev[v] {
						oracleOK = false
					}
				}
			}
		}
	}
	return float64(tFull) / float64(tIncr), oracleOK
}

// heapInUse forces a collection and returns live heap bytes.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// E20ControlPlaneScaling runs the sweep. full selects the million-route
// headline build (10k PEs / 1k VPNs); the short variant used by unit tests
// scales the headline down 10x while keeping every structural property.
func E20ControlPlaneScaling(full bool) *E20Result {
	res := &E20Result{
		Comparison: stats.NewTable("E20a — iBGP layout comparison (identical best paths, oracle-checked)",
			"PEs", "routes", "sessions_mesh", "sessions_clu", "updates_mesh", "updates_clu", "conv_mesh_ms", "conv_clu_ms", "equal"),
		Headline: stats.NewTable("E20b — million-route clustered reflection build",
			"PEs", "VPNs", "routes", "clusters", "sessions", "sessions_mesh", "updates", "loop_drops", "conv_s", "B/route"),
		ISPF: stats.NewTable("E20c — incremental vs full SPF/CSPF on single-link events (24x24 grid)",
			"plane", "events", "speedup", "oracle_equal"),
	}

	// --- Tier A: layouts compared where the full mesh is still computable.
	res.MeshEquivalent = true
	for _, pes := range []int{100, 200, 400} {
		vpns, rpp := pes/10, 10
		t0 := time.Now()
		fm, routes := e20Mesh(pes, vpns, rpp, 0)
		fm.Converge()
		convMesh := time.Since(t0)

		t0 = time.Now()
		cm, _ := e20Mesh(pes, vpns, rpp, 50)
		cm.Converge()
		convClu := time.Since(t0)

		eq := e20BestPathsEqual(fm, cm, pes)
		res.MeshEquivalent = res.MeshEquivalent && eq
		res.Comparison.AddRow(pes, routes, fm.SessionCount(), cm.SessionCount(),
			fm.UpdatesSent, cm.UpdatesSent,
			fmt.Sprintf("%.1f", convMesh.Seconds()*1e3),
			fmt.Sprintf("%.1f", convClu.Seconds()*1e3), eq)
	}

	// --- Tier B: the headline build, clustered only (the full mesh at this
	// size would need ~50M sessions and ~10^10 updates — the point).
	pes, vpns, rpp := 10_000, 1_000, 100
	if !full {
		pes, vpns, rpp = 1_000, 100, 100
	}
	before := heapInUse()
	t0 := time.Now()
	m, routes := e20Mesh(pes, vpns, rpp, 100)
	m.Converge()
	res.HeadlineConvergeSec = time.Since(t0).Seconds()
	res.BytesPerRoute = float64(heapInUse()-before) / float64(routes)

	res.HeadlinePEs, res.HeadlineVPNs, res.HeadlineRoutes = pes, vpns, routes
	res.SessionsClustered = m.SessionCount()
	res.SessionsFullMesh = pes * (pes - 1) / 2
	res.HeadlineUpdates = m.UpdatesSent
	res.LoopPrevented = m.LoopPrevented
	res.Headline.AddRow(pes, vpns, routes, (pes+99)/100,
		res.SessionsClustered, res.SessionsFullMesh, res.HeadlineUpdates,
		res.LoopPrevented, fmt.Sprintf("%.2f", res.HeadlineConvergeSec),
		fmt.Sprintf("%.0f", res.BytesPerRoute))

	// --- Tier C: incremental SPF / CSPF vs full recompute.
	events, side := 30, 24
	if !full {
		events, side = 12, 12
	}
	res.ISPFSpeedup, res.ISPFOracleOK = e20ISPFTier(events, side)
	res.ICSPFSpeedup, res.ICSPFOracleOK = e20ICSPFTier(events, 64)
	res.ISPF.AddRow("ospf-spf", events, fmt.Sprintf("%.1fx", res.ISPFSpeedup), res.ISPFOracleOK)
	res.ISPF.AddRow("te-cspf", events, fmt.Sprintf("%.1fx", res.ICSPFSpeedup), res.ICSPFOracleOK)
	return res
}
