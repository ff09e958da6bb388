package experiments

import (
	"mplsvpn/internal/addr"
	"mplsvpn/internal/bgp"
	"mplsvpn/internal/core"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/stats"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

// E8Result carries the resilience and control-plane-scaling numbers.
type E8Result struct {
	Restoration *stats.Table
	Scaling     *stats.Table
	series      *stats.TimeSeries
	// LossByDetect maps detection delay (ms) to measured loss rate.
	LossByDetect map[int]float64
	// SessionsFullMesh / SessionsRR per PE count.
	SessionsFullMesh map[int]int
	SessionsRR       map[int]int
}

// E8Resilience covers two secondary claims. First, §3's "disabled links":
// after a failure the IGP re-floods, LDP moves its next hops without a
// message (a reroute exists, so every label stays), and TE LSPs re-path;
// the traffic lost is exactly the detection/convergence window, measured
// here as a sweep. Second, §5's cross-provider/scaling concern applied to
// the control plane: the iBGP full mesh grows O(PE²) — the same shape as
// the §2.1 VC explosion — while a route reflector keeps it linear.
func E8Resilience(dur sim.Time) *E8Result {
	if dur == 0 {
		dur = 3 * sim.Second
	}
	res := &E8Result{
		Restoration: stats.NewTable("E8a — loss window vs failure-detection delay (ring, reroute available)",
			"detect_ms", "sent", "lost", "loss%", "igp_msgs_after", "ldp_msgs_after"),
		Scaling: stats.NewTable("E8b — iBGP control-plane scaling: full mesh vs route reflector",
			"PEs", "routes", "sessions_fullmesh", "updates_fullmesh", "sessions_rr", "updates_rr"),
		LossByDetect:     map[int]float64{},
		SessionsFullMesh: map[int]int{},
		SessionsRR:       map[int]int{},
	}

	// --- E8a: restoration sweep. The 500 ms case also records a
	// delivery-rate time series: the "figure" showing the outage notch.
	for _, detectMs := range []int{0, 50, 200, 500, 1000} {
		b := core.NewBackbone(core.Config{Seed: 80 + uint64(detectMs)})
		b.AddPE("PE1")
		b.AddP("P1")
		b.AddP("P2")
		b.AddPE("PE2")
		b.Link("PE1", "P1", 100e6, sim.Millisecond, 1)
		b.Link("P1", "PE2", 100e6, sim.Millisecond, 1)
		b.Link("PE1", "P2", 100e6, sim.Millisecond, 5)
		b.Link("P2", "PE2", 100e6, sim.Millisecond, 5)
		b.BuildProvider()
		b.DefineVPN("acme")
		b.AddSite(core.SiteSpec{VPN: "acme", Name: "west", PE: "PE1",
			Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
		b.AddSite(core.SiteSpec{VPN: "acme", Name: "east", PE: "PE2",
			Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
		b.ConvergeVPNs()

		f, _ := b.FlowBetween("f", "west", "east", 80)
		trafgen.CBR(b.Net, f, 200, 5*sim.Millisecond, 0, dur)
		detect := sim.Time(detectMs) * sim.Millisecond
		// LDP's counter runs over the instance's life, and a link failure
		// keeps the instance: what the fault cost is the difference.
		ldpAtFault := 0
		b.E.Schedule(dur/3, func() {
			ldpAtFault = b.LDP.MessagesSent
			b.FailLink("PE1", "P1", detect)
		})
		if detectMs == 500 {
			ts := stats.NewTimeSeries("E8-figure: deliveries per 100 ms (failure at t=1 s, 500 ms detection)", 100*sim.Millisecond)
			b.OnDeliver(func(_ topo.NodeID, _ *packet.Packet) { ts.Incr(b.E.Now()) })
			res.series = ts
		}
		b.Net.Run()

		lost := f.Stats.Sent - f.Stats.Delivered
		res.LossByDetect[detectMs] = f.Stats.LossRate()
		res.Restoration.AddRow(detectMs, f.Stats.Sent, lost,
			f.Stats.LossRate()*100, b.IGP.MessagesSent, b.LDP.MessagesSent-ldpAtFault)
	}

	// --- E8b: iBGP session/update scaling, standalone BGP meshes.
	for _, pes := range []int{4, 8, 16, 32} {
		routes := pes * 4 // four sites' routes originated per PE
		build := func(useRR bool) (sessions, updates int) {
			m := bgp.NewMesh()
			for i := 0; i < pes; i++ {
				sp := m.AddSpeaker(topo.NodeID(i), addr.IPv4(uint32(0x0aff0000)+uint32(i)))
				for r := 0; r < 4; r++ {
					sp.Originate(&bgp.VPNRoute{
						Prefix: addr.VPNPrefix{
							RD:     addr.RouteDistinguisher{Admin: 65000, Assigned: 1},
							Prefix: addr.NewPrefix(addr.IPv4(0x0a000000|uint32(i*4+r)<<8), 24),
						},
						NextHop:  addr.IPv4(uint32(0x0aff0000) + uint32(i)),
						Label:    1000,
						RTs:      []addr.RouteTarget{{Admin: 65000, Assigned: 1}},
						OriginPE: topo.NodeID(i),
					})
				}
			}
			if useRR {
				// A single reflector: one cluster, every other PE its client.
				c := bgp.Cluster{ID: 1, RRs: []topo.NodeID{0}}
				for i := 1; i < pes; i++ {
					c.Clients = append(c.Clients, topo.NodeID(i))
				}
				m.UseClusters([]bgp.Cluster{c})
			}
			m.Converge()
			return m.SessionCount(), m.UpdatesSent
		}
		sFM, uFM := build(false)
		sRR, uRR := build(true)
		res.SessionsFullMesh[pes] = sFM
		res.SessionsRR[pes] = sRR
		res.Scaling.AddRow(pes, routes, sFM, uFM, sRR, uRR)
	}
	return res
}

// Figure renders the delivery-rate time series around the failure: the
// outage notch and recovery, as a paper figure would show them.
func (r *E8Result) Figure() string {
	if r.series == nil {
		return ""
	}
	return r.series.Render(50)
}
