package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"mplsvpn/internal/core"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

// The three traffic workloads share one provider shape: an 8-router core
// ring with four cross chords and two PEs per P (the E15/E17 testbed), so a
// difference between them is a difference in load, not in topology.
const (
	ringP   = 8
	ringPEs = 16
)

// ringSpec sizes one traffic scenario.
type ringSpec struct {
	name         string
	sites, vpns  int
	coreBw, peBw float64
	cfg          core.Config
	shards       int      // 0 = serial engine
	telemetry    bool     // EnableTelemetry with one SLA target per VPN
	horizon      sim.Time // sources stop here
	drain        sim.Time // extra virtual time for queues to empty
	// checkpointLead is how long before horizon the checkpoint is taken:
	// sources still run and packets are in flight, so the snapshot carries
	// pending data-plane events, not an idle network.
	checkpointLead sim.Time
	attach         func(s *ringScenario)
}

// ringScenario is one built, unrun instance.
type ringScenario struct {
	*scenario
	spec ringSpec
	at   sim.Time // virtual time run so far
}

// buildRing provisions the scenario from nothing to ready-to-run: topology,
// BuildProvider, sites, ConvergeVPNs, telemetry, sharding, traffic and the
// setup watermark.
func buildRing(spec ringSpec, seed uint64, tr *tracer) *ringScenario {
	s := &ringScenario{scenario: newScenario(spec.name, seed, spec.cfg), spec: spec}
	b := s.b
	for i := 0; i < ringP; i++ {
		b.AddP(fmt.Sprintf("P%d", i))
	}
	for i := 0; i < ringP; i++ {
		b.Link(fmt.Sprintf("P%d", i), fmt.Sprintf("P%d", (i+1)%ringP), spec.coreBw, 2*sim.Millisecond, 1)
	}
	for i := 0; i < ringP/2; i++ {
		b.Link(fmt.Sprintf("P%d", i), fmt.Sprintf("P%d", i+ringP/2), spec.coreBw, 3*sim.Millisecond, 2)
	}
	for i := 0; i < ringPEs; i++ {
		b.AddPE(peName(i))
		b.Link(peName(i), fmt.Sprintf("P%d", i%ringP), spec.peBw, sim.Millisecond, 1)
	}
	s.buildProvider(tr)
	s.provisionSites(spec.sites, spec.vpns, ringPEs, tr)

	if spec.telemetry {
		slas := make([]telemetry.SLATarget, spec.vpns)
		for v := range slas {
			slas[v] = telemetry.SLATarget{VPN: vpnName(v), MaxP99Ms: 150, MaxLoss: 0.9}
		}
		b.EnableTelemetry(core.TelemetryOptions{Horizon: spec.horizon, SLAs: slas})
	}
	if spec.shards > 0 {
		end := tr.begin("core.EnableSharding")
		t0 := time.Now()
		// Workers 0 = GOMAXPROCS, which main pins to 1 for every run: the
		// eight shards take turns on one worker, so the run measures what
		// sharding costs (segments, barriers, handoffs), not what a second
		// core gives back.
		pr, err := b.EnableSharding(core.ShardingOptions{Shards: spec.shards})
		if err != nil {
			panic(err)
		}
		s.layer["core.enable_sharding_ms"] = ms(time.Since(t0))
		end("cut_links", pr.CutLinks)
	}

	end := tr.begin("trafgen.attach")
	spec.attach(s)
	b.E.MarkSetup()
	end("flows", len(s.flows))
	return s
}

// sliceLen is the virtual length of one timed RunUntil slice.
const sliceLen = 100 * sim.Millisecond

// checkpointSamples is how many times a ring repetition snapshots, and how
// many rebuilt scenarios it restores onto.
const checkpointSamples = 8

// runTo advances the network to t in sliceLen slices and returns the host
// time spent inside RunUntil. Traced, every slice is a span and the engine
// and queue counters are read at its boundary.
func (s *ringScenario) runTo(t sim.Time, tr *tracer, depths *depthSamples) time.Duration {
	b := s.b
	var spent time.Duration
	for s.at < t {
		s.at += sliceLen
		if s.at > t {
			s.at = t
		}
		end := tr.begin("netsim.RunUntil")
		t0 := time.Now()
		b.Net.RunUntil(s.at)
		spent += time.Since(t0)
		if tr != nil {
			queued := depths.observe(b)
			end("executed", b.E.Executed(), "delivered", b.Net.Delivered, "pending", b.E.Pending(), "queued_pkts", queued)
		}
	}
	return spent
}

// depthSamples collects event-heap and port-queue depths at the slice
// boundaries of the traced repetition.
type depthSamples struct {
	pending []float64
	queued  []float64 // queued packets, one sample per port per boundary
}

func (d *depthSamples) observe(b *core.Backbone) (queued int) {
	d.pending = append(d.pending, float64(b.E.Pending()))
	for i := 0; i < b.G.NumLinks(); i++ {
		n := 0
		portClassQueues(b, topo.LinkID(i), func(q *qos.Queue) { n += q.Len() })
		d.queued = append(d.queued, float64(n))
		queued += n
	}
	return queued
}

// runRing is one repetition of a traffic workload: build, run to the
// checkpoint instant, snapshot, run to the end; then rebuild, restore and
// finish, which must reproduce the uninterrupted fingerprint.
func runRing(spec ringSpec, cfg runConfig) (*repOut, *ringScenario) {
	out := &repOut{}
	tr := cfg.tr

	var s *ringScenario
	out.setupS = append(out.setupS, timedSpan(tr, "setup", func() { s = buildRing(spec, cfg.seed, tr) }).Seconds())
	b, n := s.b, s.b.Net
	out.layer = s.layer

	var hops, hopPkts int64
	if tr != nil {
		// p.Hops is read where the packet ends. The hook is a global
		// observer (it moves sharded deliveries back to the barrier), so it
		// is installed in the traced repetition only.
		b.OnDeliver(func(_ topo.NodeID, p *packet.Packet) {
			hops += int64(p.Hops)
			hopPkts++
		})
	}

	end := spec.horizon + spec.drain
	depths := &depthSamples{}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stage := s.runTo(spec.horizon-spec.checkpointLead, tr, depths)
	runtime.ReadMemStats(&after)
	measured := float64(n.Delivered) // packets delivered between the two MemStats readings
	// The repetition is one rate sample: packets offered up to the checkpoint
	// per host second of RunUntil, so a collection, a barrier stall or a pool
	// growing inside the stage is inside the sample. Offered, not delivered:
	// the offered load is the input and the same at every seed, whereas on
	// the congested workload the delivered share moves with the seed's
	// placement. What follows the checkpoint is the sources stopping and the
	// network draining, and is not part of the rate.
	out.rate = float64(n.Injected) / stage.Seconds()

	// The checkpoint is cheap next to the run, so it is taken and restored
	// checkpointSamples times and the repetition's sample is the median. A
	// snapshot does not change what it captures, so every copy must be
	// identical.
	var snap []byte
	for i := 0; i < checkpointSamples; i++ {
		var data []byte
		var err error
		d := timedCheckpoint(tr, "core.Snapshot", func() { data, err = b.Snapshot(s.scenarioID()) })
		out.op(err == nil && (snap == nil || bytes.Equal(snap, data)), "snapshot %d: err %v, %d bytes against %d before", i, err, len(data), len(snap))
		if err != nil {
			continue
		}
		snap = data
		out.snapMs = append(out.snapMs, ms(d))
	}

	runtime.GC()
	stage += s.runTo(end, tr, depths)
	out.snapshotB = float64(len(snap))
	endCheck := tr.begin("harness.check")
	out.fingerprint = s.fingerprint()
	out.liveHeapMB = heapInuseMB()
	s.checkInvariants(out)
	endCheck()

	// Restore onto scenarios rebuilt from nothing; the last one finishes the
	// run, which must be indistinguishable from the uninterrupted one.
	for i := 0; snap != nil && i < checkpointSamples; i++ {
		var s2 *ringScenario
		out.setupS = append(out.setupS, timedSpan(tr, "setup", func() { s2 = buildRing(spec, cfg.seed, tr) }).Seconds())
		var err error
		d := timedCheckpoint(tr, "core.Restore", func() { err = s2.b.Restore(snap, s2.scenarioID()) })
		out.op(err == nil, "restore %d: %v", i, err)
		if err != nil {
			continue
		}
		out.restoreMs = append(out.restoreMs, ms(d))
		if i == checkpointSamples-1 {
			endResume := tr.begin("resume")
			s2.b.Net.RunUntil(end)
			fp2 := s2.fingerprint()
			endResume()
			out.check(fp2 == out.fingerprint, "restored run %s differs from the uninterrupted run %s",
				digest(fp2), digest(out.fingerprint))
		}
	}

	// Exact counts and harness-side timings of this repetition.
	l := out.layer
	if tr != nil && len(out.snapMs) > 0 {
		snapshotLayers(snap, time.Duration(median(out.snapMs)*1e6), tr, l)
	}
	delivered := float64(n.Delivered)
	l["sim.events_per_pkt"] = float64(b.E.Executed()) / delivered
	l["sim.shard_handoffs_per_pkt"] = float64(n.CrossShardHandoffs()) / delivered
	l["netsim.drop_share"] = float64(n.Dropped) / float64(n.Injected)
	l["netsim.allocs_per_pkt"] = float64(after.Mallocs-before.Mallocs) / measured
	l["netsim.alloc_bytes_per_pkt"] = float64(after.TotalAlloc-before.TotalAlloc) / measured
	l["layers.e2e_ns_per_pkt"] = stage.Seconds() * 1e9 / delivered
	sent := 0
	for _, f := range s.flows {
		sent += f.Stats.Sent
	}
	l["trafgen.pkts_sent"] = float64(sent)
	ip, label := 0, 0
	for _, r := range n.Routers {
		ip += r.IPLookups
		label += r.LabelLookups
	}
	l["device.ip_lookups_per_pkt"] = float64(ip) / delivered
	l["device.label_lookups_per_pkt"] = float64(label) / delivered
	// An enqueue finds its port busy with the probability that the port is
	// transmitting, so the offered-byte-weighted utilisation stands in for
	// a count netsim does not keep.
	var full, early int
	var offered, busy float64
	for i := 0; i < b.G.NumLinks(); i++ {
		id := topo.LinkID(i)
		portClassQueues(b, id, func(q *qos.Queue) {
			full += q.DroppedFull
			early += q.DroppedEarly
		})
		ob := float64(n.LinkOfferedBytes(id))
		offered += ob
		busy += ob * n.LinkUtilization(id)
	}
	l["qos.dropped_full"] = float64(full)
	l["qos.dropped_early"] = float64(early)
	l["qos.busy_enqueue_share"] = busy / offered
	if tr != nil {
		l["netsim.hops_per_pkt"] = float64(hops) / float64(hopPkts)
		l["sim.pending_depth_p50"] = median(depths.pending)
		l["qos.queue_depth_p50_pkts"] = median(depths.queued)
		_, l["qos.queue_depth_max_pkts"] = minMax(depths.queued)
	}
	if tel := b.Telemetry(); tel != nil {
		l["telemetry.flow_records"] = float64(len(tel.Flows.Records()))
	}
	return out, s
}

// ---------------------------------------------------------------------------
// backbone200_cbr and backbone200_shards8

// backbone200Spec is the E15/E17 scenario: 200 sites in 20 VPNs on 10 Gb/s
// links under the hybrid scheduler, one 1000 pkt/s x 200 B CBR flow per
// site. Ports never queue, so every packet-hop is pure event-queue, netsim
// and device cost. The serial and the sharded workload share the scenario
// name, and with it every seeded input: their fingerprints must be equal.
func backbone200Spec(cfg runConfig, shards int) ringSpec {
	horizon := sim.Time(cfg.scaled(2000, 60)) * sim.Millisecond
	return ringSpec{
		name:  "backbone200",
		sites: cfg.scaled(200, 40), vpns: 20,
		coreBw: 10e9, peBw: 10e9,
		cfg:     core.Config{Scheduler: core.SchedHybrid},
		shards:  shards,
		horizon: horizon, drain: 50 * sim.Millisecond,
		checkpointLead: 20 * sim.Millisecond,
		attach: func(s *ringScenario) {
			// Distinct per-flow phases (137 us is coprime with the 1 ms
			// period) keep any two sources off the same nanosecond; the
			// seed permutes which flow gets which phase.
			phase := s.rng.perm(s.spec.sites)
			for i := 0; i < s.spec.sites; i++ {
				f := s.flow(fmt.Sprintf("f%d", i), i, s.peerOf(i), 5060, packet.DSCPBestEffort)
				s.b.RegisterSource(trafgen.CBR(s.b.Net, f, 200, sim.Millisecond,
					sim.Time(phase[i])*137*sim.Microsecond, horizon))
			}
		},
	}
}

func repBackbone200Serial(cfg runConfig) *repOut {
	out, s := runRing(backbone200Spec(cfg, 0), cfg)
	out.check(s.b.Net.Dropped == 0, "backbone200 dropped %d packets, want 0", s.b.Net.Dropped)
	return out
}

// backbone200ShardsRep returns the repetition of the sharded workload: the
// scenario on 8 shards, checked against the same scenario on the serial
// engine, whose fingerprint must be equal. The serial run is the oracle, not
// the measurement, and the simulation is deterministic, so it runs once per
// (seed, scale) and later repetitions reuse its result.
func backbone200ShardsRep() func(cfg runConfig) *repOut {
	type oracle struct {
		fingerprint string
		nsPerPkt    float64
	}
	oracles := map[runConfig]oracle{}
	return func(cfg runConfig) *repOut {
		out, s := runRing(backbone200Spec(cfg, 8), cfg)
		out.check(s.b.Net.Dropped == 0, "backbone200 dropped %d packets, want 0", s.b.Net.Dropped)

		key := runConfig{seed: cfg.seed, scale: cfg.scale}
		o, ok := oracles[key]
		if !ok {
			spec := backbone200Spec(cfg, 0)
			serial := buildRing(spec, cfg.seed, nil)
			runtime.GC()
			endOracle := cfg.tr.begin("serial-oracle")
			d := serial.runTo(spec.horizon+spec.drain, nil, nil)
			endOracle()
			o = oracle{serial.fingerprint(), float64(d.Nanoseconds()) / float64(serial.b.Net.Delivered)}
			oracles[key] = o
		}
		out.check(o.fingerprint == out.fingerprint, "8-shard fingerprint %s differs from serial %s",
			digest(out.fingerprint), digest(o.fingerprint))
		out.layer["sim.shard_speedup"] = o.nsPerPkt / out.layer["layers.e2e_ns_per_pkt"]
		return out
	}
}

// ---------------------------------------------------------------------------
// metro64_congested

// metro64Spec is the same provider shape slowed down until it queues:
// 45 Mb/s core links, 20 Mb/s PE uplinks, 64 sites in 8 VPNs, hybrid
// scheduler with WRED, telemetry on. Each site offers voice (EF CBR),
// business (AF41 Poisson) and bulk (BE CBR) towards its peer; the bulk
// alone overloads the PE uplinks, so ports stay backlogged and the qos and
// telemetry layers do most of the work.
func metro64Spec(cfg runConfig) ringSpec {
	horizon := sim.Time(cfg.scaled(6000, 300)) * sim.Millisecond
	return ringSpec{
		name:  "metro64",
		sites: 64, vpns: 8,
		coreBw: 45e6, peBw: 20e6,
		cfg:       core.Config{Scheduler: core.SchedHybrid, WRED: true},
		telemetry: true,
		horizon:   horizon, drain: 500 * sim.Millisecond,
		checkpointLead: 100 * sim.Millisecond,
		attach: func(s *ringScenario) {
			b := s.b
			phase := s.rng.perm(s.spec.sites)
			for i := 0; i < s.spec.sites; i++ {
				peer := s.peerOf(i)
				off := sim.Time(phase[i]) * 137 * sim.Microsecond
				voice := s.flow(fmt.Sprintf("voice%d", i), i, peer, 5060, packet.DSCPEF)
				b.RegisterSource(trafgen.CBR(b.Net, voice, 160, 20*sim.Millisecond, off, horizon))
				biz := s.flow(fmt.Sprintf("business%d", i), i, peer, 443, packet.DSCPAF41)
				b.RegisterSource(trafgen.Poisson(b.Net, biz, 400, 300, off+53*sim.Microsecond, horizon,
					sim.NewRand(s.rng.next())))
				bulk := s.flow(fmt.Sprintf("bulk%d", i), i, peer, 20, packet.DSCPBestEffort)
				b.RegisterSource(trafgen.CBR(b.Net, bulk, 1400, 1500*sim.Microsecond, off+89*sim.Microsecond, horizon))
			}
		},
	}
}

func repMetro64(cfg runConfig) *repOut {
	spec := metro64Spec(cfg)
	out, s := runRing(spec, cfg)
	out.check(s.b.Net.Dropped > 0, "metro64 dropped nothing: the workload is not congested")

	// The paper's SLA numbers, in simulated time: they repeat exactly at one
	// seed, and a simulator-only change must leave them identical.
	var voice, bulk classTotals
	for _, f := range s.flows {
		switch {
		case strings.HasPrefix(f.Name, "voice"):
			voice.add(f)
		case strings.HasPrefix(f.Name, "bulk"):
			bulk.add(f)
		}
	}
	out.layer["sim_voice_p99_ms"] = voice.worstP99
	out.layer["sim_voice_loss_pct"] = voice.lossPct()
	out.layer["sim_bulk_loss_pct"] = bulk.lossPct()
	out.layer["sim_bulk_goodput_mbps"] = float64(bulk.bytes*8) / spec.horizon.Seconds() / 1e6
	return out
}

// classTotals pools the flows of one traffic class.
type classTotals struct {
	sent, delivered int
	bytes           int64
	worstP99        float64
}

func (c *classTotals) add(f *trafgen.Flow) {
	c.sent += f.Stats.Sent
	c.delivered += f.Stats.Delivered
	c.bytes += f.Stats.Bytes
	if p := f.Stats.Latency.Percentile(99); p > c.worstP99 {
		c.worstP99 = p
	}
}

func (c *classTotals) lossPct() float64 {
	if c.sent == 0 {
		return 0
	}
	return 100 * float64(c.sent-c.delivered) / float64(c.sent)
}
