package core

import (
	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

// Delivery and drop accounting by index. A delivered packet is accounted
// against the site it reached (siteAt: a slice indexed by node), the flow
// its 5-tuple is registered to, and — with telemetry on — its VPN's
// instruments, SLA window and flow-export accumulator. None of those is
// looked up by string or hashed 5-tuple on the steady path:
//
//   - a site record caches its VPN's instruments and SLA window;
//   - a packet carries the flow slot its flow was registered under
//     (packet.FlowSlot, stamped at send time), and the slot holds what the
//     flows and aimd maps hold for that tuple, confirmed by comparing keys;
//   - a slot caches its flow-export accumulator per (destination site,
//     class), valid while siteEpoch is unchanged.
//
// A packet without a slot, or whose tuple is not its slot's (a restored
// packet, a probe, a tuple rewritten in flight, a flow registered with
// another AS), takes the map path; both paths reach the same flow, source
// and accumulator, so which one a packet takes is invisible in every result.

// flowSlot is one registered 5-tuple: the flow and the AIMD source it is
// registered to, and the telemetry it has resolved.
type flowSlot struct {
	key  packet.FlowKey
	flow *trafgen.Flow
	aimd *trafgen.AIMD

	// acc[c] is the flow-export accumulator index + 1 of a class-c delivery
	// at site (0 = not resolved yet), valid while epoch == siteEpoch.
	epoch uint64
	site  *siteRecord
	acc   [qos.NumClasses]int32
	// dropTel is the instruments of VPN dropVPN, the origin of the last
	// packet of this tuple dropped.
	dropVPN string
	dropTel *vpnTel
}

// slotFor returns the slot index of a 5-tuple, allocating one on first
// registration.
func (b *Backbone) slotFor(key packet.FlowKey) int32 {
	if b.slotIdx == nil {
		b.slotIdx = make(map[packet.FlowKey]int32)
		b.slots = make([]flowSlot, 1) // index 0 is "no slot"
	}
	i, ok := b.slotIdx[key]
	if !ok {
		i = int32(len(b.slots))
		b.slots = append(b.slots, flowSlot{key: key})
		b.slotIdx[key] = i
	}
	return i
}

// slotOf returns the slot the packet is stamped with, or nil when it has
// none or the slot belongs to another 5-tuple.
func (b *Backbone) slotOf(p *packet.Packet) *flowSlot {
	if i := int(p.FlowSlot); i > 0 && i < len(b.slots) && b.slots[i].key == p.FlowKey() {
		return &b.slots[i]
	}
	return nil
}

// flowOf returns the flow and the AIMD source the packet's 5-tuple is
// registered to, from its slot s or else by tuple.
func (b *Backbone) flowOf(s *flowSlot, p *packet.Packet) (*trafgen.Flow, *trafgen.AIMD) {
	if s != nil {
		return s.flow, s.aimd
	}
	k := p.FlowKey()
	return b.flows[k], b.aimd[k]
}

// siteAt returns the site whose CE or host node n is, or nil.
func (b *Backbone) siteAt(n topo.NodeID) *siteRecord {
	if int(n) < len(b.siteByNode) {
		return b.siteByNode[n]
	}
	return nil
}

// placeSite binds (or, with rec nil, unbinds) a site's CE and hosts, and
// moves siteEpoch: the sites, and the prefixes they own, have changed.
func (b *Backbone) placeSite(nodes []topo.NodeID, rec *siteRecord) {
	for _, n := range nodes {
		for int(n) >= len(b.siteByNode) {
			b.siteByNode = append(b.siteByNode, nil)
		}
		b.siteByNode[n] = rec
	}
	b.siteEpoch++
}

// installLocalDeliver moves per-packet delivery accounting into the
// destination shard's segment when that is safe: the backbone owns
// delivery dispatch, and no global observer (telemetry, AIMD feedback,
// caller hooks, request/response) needs the barrier's deterministic
// time-sorted stream. Isolation checks and flow stats qualify — the
// isolation count goes through a per-shard accumulator cell, and a flow's
// deliveries all land on the one shard owning its destination, so each
// FlowStats keeps a single writer.
func (b *Backbone) installLocalDeliver() {
	if b.ownsDelivery && b.E.Sharded() && b.tel == nil && b.aimd == nil && len(b.deliverHooks) == 0 {
		b.Net.OnDeliverLocal = b.onDeliverLocal
	}
}

// disableLocalDeliver routes deliveries back through the deferred barrier
// notes. Called whenever a global observer appears.
func (b *Backbone) disableLocalDeliver() {
	b.Net.OnDeliverLocal = nil
}

// onDeliverLocal is the shard-segment twin of onDeliver: identical
// accounting, but IsolationViolations accumulates in the shard's cell and
// the flow lookup uses the shard-local clock. What it reads (sites, vpns,
// slots, flows) only mutates on the global band, which never overlaps a
// segment, and it writes no slot.
func (b *Backbone) onDeliverLocal(shard int, now sim.Time, at topo.NodeID, p *packet.Packet) {
	if rec := b.siteAt(at); p.OriginVPN != "" && rec != nil && !b.legitimateDelivery(p.OriginVPN, rec.Spec.VPN) {
		b.isoAcc.Add(shard, 0, 1)
	}
	if fl, _ := b.flowOf(b.slotOf(p), p); fl != nil {
		fl.Stats.RecordDelivery(p.SentAt, now, p.Payload)
	}
}

// onDeliver enforces the E6 invariant: a packet may only terminate in the
// VPN it entered, or in a VPN that deliberately exported routes into it
// (an extranet). The check uses simulator metadata only — the forwarding
// path never sees OriginVPN.
func (b *Backbone) onDeliver(at topo.NodeID, p *packet.Packet) {
	rec := b.siteAt(at)
	if p.OriginVPN != "" && rec != nil && !b.legitimateDelivery(p.OriginVPN, rec.Spec.VPN) {
		b.IsolationViolations++
	}
	s := b.slotOf(p)
	fl, src := b.flowOf(s, p)
	if fl != nil {
		fl.Stats.RecordDelivery(p.SentAt, b.E.Now(), p.Payload)
	}
	if src != nil {
		src.Ack()
	}
	if b.tel != nil && rec != nil {
		b.telDeliver(rec, s, p)
	}
	for _, fn := range b.deliverHooks {
		fn(at, p)
	}
}

// legitimateDelivery reports whether a packet injected in VPN origin may
// terminate at a site of VPN dest: same VPN, or dest exported a route
// target that origin imports (the extranet contract that put dest's routes
// into origin's VRF in the first place).
func (b *Backbone) legitimateDelivery(origin, dest string) bool {
	if origin == dest {
		return true
	}
	o, ok1 := b.vpns[origin]
	d, ok2 := b.vpns[dest]
	if !ok1 || !ok2 {
		return false
	}
	for _, ex := range d.Exports {
		for _, im := range o.Imports {
			if ex == im {
				return true
			}
		}
	}
	return false
}

// vpnTel is one VPN's delivery instruments and SLA window, resolved once
// per VPN.
type vpnTel struct {
	delivered *telemetry.Counter // bytes
	dropped   *telemetry.Counter // packets
	latency   *telemetry.Histogram
	window    *telemetry.SLAWindow // nil without an SLA target
}

// vpnTelFor resolves (once per VPN) the delivery instruments.
func (b *Backbone) vpnTelFor(vpn string) *vpnTel {
	vt, ok := b.vpnTel[vpn]
	if !ok {
		l := telemetry.Labels{VPN: vpn}
		vt = &vpnTel{
			delivered: b.tel.Reg.Counter("vpn_delivered_bytes", l),
			dropped:   b.tel.Reg.Counter("vpn_dropped_pkts", l),
			latency:   b.tel.Reg.Histogram("vpn_latency_ms", l),
			window:    b.tel.Watcher.Window(vpn),
		}
		b.vpnTel[vpn] = vt
	}
	return vt
}

// telDeliver accounts one packet delivered at site rec: per-VPN counters,
// the latency histogram, the SLA watcher's interval window, and the flow
// exporter. s is the packet's flow slot, nil for the map path.
func (b *Backbone) telDeliver(rec *siteRecord, s *flowSlot, p *packet.Packet) {
	now := b.E.Now()
	latMs := float64(now-p.SentAt) / float64(sim.Millisecond)
	size := p.SerializedLen()

	if rec.tel == nil {
		rec.tel = b.vpnTelFor(rec.Spec.VPN)
	}
	vt := rec.tel
	vt.delivered.Add(int64(size))
	vt.latency.Observe(latMs)
	vt.window.ObserveDelivery(latMs)

	c := qos.ClassOf(p)
	var acc int32
	if s == nil {
		acc = b.flowAcc(rec, c, p.IP.Src)
	} else {
		if s.epoch != b.siteEpoch || s.site != rec {
			s.epoch, s.site, s.acc = b.siteEpoch, rec, [qos.NumClasses]int32{}
		}
		if s.acc[c] == 0 {
			s.acc[c] = b.flowAcc(rec, c, p.IP.Src) + 1
		}
		acc = s.acc[c] - 1
	}
	b.tel.Flows.RecordAt(now, acc, size)
}

// flowAcc resolves the flow-export accumulator of a class-c packet from
// address src delivered at site rec: keyed by VPN, source site (the site
// owning src, "" for none), destination site and class.
func (b *Backbone) flowAcc(rec *siteRecord, c qos.Class, src addr.IPv4) int32 {
	srcSite := ""
	if from, ok := b.siteByPrefix.Lookup(src); ok {
		srcSite = from.Spec.Name
	}
	return b.tel.Flows.Acc(telemetry.FlowKey{
		VPN: rec.Spec.VPN, SrcSite: srcSite, DstSite: rec.Spec.Name, Class: c.String(),
	})
}

// telDrop accounts one dropped packet against its origin VPN.
func (b *Backbone) telDrop(p *packet.Packet) {
	if p.OriginVPN == "" {
		return
	}
	var vt *vpnTel
	if s := b.slotOf(p); s == nil {
		vt = b.vpnTelFor(p.OriginVPN)
	} else {
		if s.dropTel == nil || s.dropVPN != p.OriginVPN {
			s.dropVPN, s.dropTel = p.OriginVPN, b.vpnTelFor(p.OriginVPN)
		}
		vt = s.dropTel
	}
	vt.dropped.Inc()
	vt.window.ObserveDrop()
}
