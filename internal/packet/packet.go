package packet

import (
	"fmt"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/sim"
)

// FlowKey identifies a transport flow (the classic 5-tuple).
type FlowKey struct {
	Src, Dst         addr.IPv4
	SrcPort, DstPort uint16
	Protocol         uint8
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%d", k.Src, k.SrcPort, k.Dst, k.DstPort, k.Protocol)
}

// Packet is the unit moved through the data plane. The IP header and MPLS
// stack are structured for speed; SerializedLen reports the true on-wire
// size (headers + payload) used for transmission timing, so queueing and
// bandwidth behaviour reflect the real encodings.
type Packet struct {
	IP         IPv4Header
	MPLS       LabelStack
	L4         L4Header
	Payload    int // payload bytes (simulated, not materialized)
	ESP        *ESPInfo
	Seq        uint64   // per-flow sequence number, assigned by generators
	SentAt     sim.Time // timestamp at first transmission, for latency stats
	EnqueuedAt sim.Time // set by queues, for per-hop delay accounting
	Hops       int      // routers traversed, for path-length assertions

	// VPN bookkeeping (simulator metadata, not wire data): the VPN the
	// packet was injected into, used only to *check* isolation — the data
	// plane itself must never consult it for forwarding.
	OriginVPN string
	// FlowSlot is the sending flow's delivery-accounting slot in the
	// backbone that registered it (0 = none), stamped at send time. Like
	// OriginVPN it is simulator metadata and never serialized; the backbone
	// trusts it only after comparing the slot's 5-tuple with the packet's.
	FlowSlot int32

	// Hot-path caches. fh memoizes the 5-tuple hash (flows never change
	// their tuple in flight except at an IPSec gateway, which invalidates);
	// wire memoizes SerializedLen between the end of a router's pipeline
	// and the far end of the link, where the headers cannot change.
	fh     uint32
	fhSet  bool
	wire   int32
	pooled bool // owned by a netsim freelist; recycled at deliver/drop
}

// L4Header is a minimal UDP-style transport header (8 bytes on the wire).
type L4Header struct {
	SrcPort, DstPort uint16
}

// L4HeaderLen is the wire size of the transport header.
const L4HeaderLen = 8

// ESPInfo models an ESP encapsulation in tunnel mode. When a packet carries
// ESP, the "inner" IP header (the customer packet) is encrypted: simulated
// here by the InnerHidden flag — once set, forwarding elements must not read
// Inner* fields. This models the paper's §3 observation that encryption
// erases the information QoS control needs.
type ESPInfo struct {
	SPI         uint32
	SeqNum      uint64
	InnerDSCP   DSCP // the customer's marking, inaccessible once encrypted
	InnerSrc    addr.IPv4
	InnerDst    addr.IPv4
	InnerHidden bool // true after "encryption"
	AuthBytes   int  // ICV length
	PadBytes    int  // block-cipher padding
}

// FlowHash returns a stable FNV-1a hash of the packet's 5-tuple, used to
// pin a flow onto one path of an ECMP set (so a flow never reorders across
// parallel paths). The hash is computed once per packet and cached; code
// that rewrites the 5-tuple mid-flight (IPSec encap/decap) must call
// InvalidateCaches.
func (p *Packet) FlowHash() uint32 {
	if !p.fhSet {
		p.fh = flowHash(p)
		p.fhSet = true
	}
	return p.fh
}

func flowHash(p *Packet) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint32(p.IP.Src))
	mix(uint32(p.IP.Dst))
	mix(uint32(p.L4.SrcPort)<<16 | uint32(p.L4.DstPort))
	mix(uint32(p.IP.Protocol))
	return h
}

// InvalidateCaches discards the memoized flow hash and wire length after a
// header rewrite that changes them (tunnel encap/decap).
func (p *Packet) InvalidateCaches() {
	p.fhSet = false
	p.wire = 0
}

// FlowKey extracts the packet's transport 5-tuple.
func (p *Packet) FlowKey() FlowKey {
	return FlowKey{
		Src: p.IP.Src, Dst: p.IP.Dst,
		SrcPort: p.L4.SrcPort, DstPort: p.L4.DstPort,
		Protocol: p.IP.Protocol,
	}
}

// SerializedLen returns the packet's on-wire length in bytes: IP header,
// MPLS shim headers, ESP overhead if present, transport header, payload.
// It always computes from the headers; the hot path uses Wire, which
// memoizes between header rewrites.
func (p *Packet) SerializedLen() int {
	n := IPv4HeaderLen + p.MPLS.Depth()*LabelStackEntryLen + L4HeaderLen + p.Payload
	if p.ESP != nil {
		// Outer IP header already counted; add ESP header (SPI+seq = 8),
		// IV (16), inner IP header, padding, and ICV.
		n += 8 + 16 + IPv4HeaderLen + p.ESP.PadBytes + p.ESP.AuthBytes
	}
	return n
}

// Wire returns the cached on-wire length, computing it on first use.
// Headers only change inside a router's pipeline; netsim refreshes the
// cache (RefreshWire) when the packet leaves the pipeline, so queues,
// schedulers, and shapers all read one consistent precomputed size.
func (p *Packet) Wire() int {
	if p.wire == 0 {
		p.wire = int32(p.SerializedLen())
	}
	return int(p.wire)
}

// RefreshWire recomputes and caches the on-wire length. Called once per hop
// after label operations settle.
func (p *Packet) RefreshWire() int {
	p.wire = int32(p.SerializedLen())
	return int(p.wire)
}

// Reset returns the packet to its zero state, keeping only freelist
// ownership. Pools call it on recycle so a reused packet is
// indistinguishable from a freshly allocated one — that equivalence is
// what keeps pooling invisible to the deterministic engine.
func (p *Packet) Reset() {
	pooled := p.pooled
	*p = Packet{pooled: pooled}
}

// SetPooled marks the packet as owned by a freelist. Only netsim pools use
// this; packets constructed by tests or probes stay unpooled and are left
// for the garbage collector.
func (p *Packet) SetPooled() { p.pooled = true }

// Pooled reports whether the packet belongs to a freelist.
func (p *Packet) Pooled() bool { return p.pooled }

// Clone returns a deep copy (label stack and ESP info included). Multicast
// or ECMP replication must not alias the stack. Clones are never
// pool-owned: the pool recycles only the original at delivery.
func (p *Packet) Clone() *Packet {
	q := *p
	q.pooled = false
	if p.ESP != nil {
		e := *p.ESP
		q.ESP = &e
	}
	return &q
}

func (p *Packet) String() string {
	s := fmt.Sprintf("%s->%s dscp=%s len=%d ttl=%d", p.IP.Src, p.IP.Dst, p.IP.DSCP, p.SerializedLen(), p.IP.TTL)
	if p.MPLS.Depth() > 0 {
		s += " mpls=" + p.MPLS.String()
	}
	if p.ESP != nil {
		s += fmt.Sprintf(" esp(spi=%d)", p.ESP.SPI)
	}
	return s
}
