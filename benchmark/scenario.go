package main

import (
	"fmt"
	"strings"
	"time"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/core"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

// scenario is one built backbone plus the seeded choices that shaped it.
// Every backbone workload embeds it.
type scenario struct {
	name  string
	b     *core.Backbone
	flows []*trafgen.Flow
	// vpnSites[v] lists the sites of VPN v in the seeded order flows follow.
	vpnSites [][]int
	rng      *rng
	// layer collects harness-side timings and exact counts seen while
	// building and running.
	layer map[string]float64
}

func newScenario(name string, seed uint64, cfg core.Config) *scenario {
	cfg.Seed = seed
	return &scenario{
		name:  name,
		b:     core.NewBackbone(cfg),
		rng:   newRng(seed, name),
		layer: map[string]float64{},
	}
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

func sitePrefix(i int) addr.Prefix {
	return addr.NewPrefix(addr.IPv4(0x0a000000|uint32(i+1)<<8), 24)
}

func siteName(i int) string { return fmt.Sprintf("s%d", i) }
func vpnName(v int) string  { return fmt.Sprintf("vpn%d", v) }
func peName(i int) string   { return fmt.Sprintf("PE%d", i) }

// buildProvider times and traces core.BuildProvider on the topology the
// caller has just laid out.
func (s *scenario) buildProvider(tr *tracer) {
	end := tr.begin("core.BuildProvider")
	t0 := time.Now()
	s.b.BuildProvider()
	s.layer["core.build_provider_ms"] = ms(time.Since(t0))
	end()
}

// provisionSites defines vpns VPNs, attaches sites sites (site i belongs to
// VPN i mod vpns) and converges the VPN control plane. The seed picks which
// PE each site attaches to, balanced so every PE gets the same number of
// sites to within one, and the order of sites inside each VPN, which decides
// who talks to whom.
func (s *scenario) provisionSites(sites, vpns, pes int, tr *tracer) {
	b := s.b
	sitePE := make([]int, sites)
	for i, p := range s.rng.perm(sites) {
		sitePE[i] = p % pes
	}
	s.vpnSites = make([][]int, vpns)
	for i := 0; i < sites; i++ {
		s.vpnSites[i%vpns] = append(s.vpnSites[i%vpns], i)
	}
	for v, members := range s.vpnSites {
		shuffled := make([]int, len(members))
		for k, o := range s.rng.perm(len(members)) {
			shuffled[k] = members[o]
		}
		s.vpnSites[v] = shuffled
	}

	end := tr.begin("core.AddSite")
	t0 := time.Now()
	for v := 0; v < vpns; v++ {
		b.DefineVPN(vpnName(v))
	}
	for i := 0; i < sites; i++ {
		b.AddSite(core.SiteSpec{
			VPN:      vpnName(i % vpns),
			Name:     siteName(i),
			PE:       peName(sitePE[i]),
			Prefixes: []addr.Prefix{sitePrefix(i)},
		})
	}
	s.layer["core.add_site_us"] = us(time.Since(t0)) / float64(sites)
	end("sites", sites)

	end = tr.begin("core.ConvergeVPNs")
	t0 = time.Now()
	b.ConvergeVPNs()
	s.layer["core.converge_vpns_ms"] = ms(time.Since(t0))
	end("bgp_updates", b.BGP.UpdatesSent)

	// Exact control-plane work of the build, one prefix per site.
	s.layer["ospf.messages_sent"] = float64(b.IGP.MessagesSent)
	s.layer["ldp.messages_sent"] = float64(b.LDP.MessagesSent)
	s.layer["bgp.sessions"] = float64(b.BGP.SessionCount())
	s.layer["bgp.loop_prevented"] = float64(b.BGP.LoopPrevented)
	s.layer["bgp.updates_per_route"] = float64(b.BGP.UpdatesSent) / float64(len(b.SiteNames()))
}

// snapshotLayers costs the codec on one checkpoint: container decode alone,
// encode throughput, and the bytes of the sections that dominate it.
func snapshotLayers(data []byte, snapD time.Duration, tr *tracer, l map[string]float64) {
	var file *snapshot.File
	var err error
	l["snapshot.decode_ms"] = ms(timedSpan(tr, "snapshot.Decode", func() { file, err = snapshot.Decode(data) }))
	l["snapshot.encode_mb_per_s"] = float64(len(data)) / (1 << 20) / snapD.Seconds()
	if err != nil {
		return
	}
	for _, sec := range []string{"bgp", "routers", "net", "labels", "igp"} {
		body, _ := file.Section(sec)
		l["snapshot.section_bytes."+sec] = float64(len(body))
	}
}

// peerOf returns the site that site i sends to: the next site of its VPN in
// the seeded order, so every sender has a distinct receiver.
func (s *scenario) peerOf(i int) int {
	list := s.vpnSites[i%len(s.vpnSites)]
	for k, site := range list {
		if site == i {
			return list[(k+1)%len(list)]
		}
	}
	panic("site not in its VPN")
}

// flow creates and records one measured flow between two sites.
func (s *scenario) flow(name string, from, to int, port uint16, dscp packet.DSCP) *trafgen.Flow {
	f, err := s.b.FlowBetween(name, siteName(from), siteName(to), port)
	if err != nil {
		panic(err)
	}
	f.DSCP = dscp
	s.flows = append(s.flows, f)
	return f
}

// scenarioID is the checkpoint fingerprint Restore insists on.
func (s *scenario) scenarioID() string { return fmt.Sprintf("%s/seed%d", s.name, s.b.Cfg.Seed) }

// fingerprint is the byte surface that must repeat exactly at one seed:
// control-plane digest, packet counters, isolation count and every flow's
// latency/loss summary.
func (s *scenario) fingerprint() string {
	var sb strings.Builder
	sb.WriteString(s.b.StateDigest())
	fmt.Fprintf(&sb, "net: injected=%d delivered=%d dropped=%d isolation=%d\n",
		s.b.Net.Injected, s.b.Net.Delivered, s.b.Net.Dropped, s.b.IsolationViolations)
	for _, f := range s.flows {
		sb.WriteString(f.Stats.Summary())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// checkInvariants runs the checks every backbone repetition ends with.
func (s *scenario) checkInvariants(out *repOut) {
	n := s.b.Net
	out.check(s.b.IsolationViolations == 0, "%d isolation violations", s.b.IsolationViolations)
	err := n.CheckConservation()
	out.check(err == nil, "conservation: %v", err)
	out.check(n.Injected == n.Delivered+n.Dropped,
		"injected %d != delivered %d + dropped %d: packets still in flight after the drain",
		n.Injected, n.Delivered, n.Dropped)
}

// portClassQueues visits each distinct class queue of a port once (a FIFO
// serves every class from one queue).
func portClassQueues(b *core.Backbone, link topo.LinkID, fn func(q *qos.Queue)) {
	var seen [qos.NumClasses]*qos.Queue
	n := 0
classes:
	for c := qos.Class(0); c < qos.NumClasses; c++ {
		q := b.Net.PortQueue(link, c)
		if q == nil {
			continue
		}
		for _, s := range seen[:n] {
			if s == q {
				continue classes
			}
		}
		seen[n] = q
		n++
		fn(q)
	}
}
