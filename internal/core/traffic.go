package core

import (
	"fmt"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

// FlowBetween creates a measured flow from one site to another: the source
// address is the first host of the origin site's first prefix, the
// destination the first host of the target site's first prefix. Delivered
// packets are matched back to the flow by 5-tuple and recorded in its
// FlowStats.
func (b *Backbone) FlowBetween(name, fromSite, toSite string, dstPort uint16) (*trafgen.Flow, error) {
	from, ok := b.sites[fromSite]
	if !ok {
		return nil, fmt.Errorf("core: unknown site %q", fromSite)
	}
	to, ok := b.sites[toSite]
	if !ok {
		return nil, fmt.Errorf("core: unknown site %q", toSite)
	}
	if len(from.Spec.Prefixes) == 0 || len(to.Spec.Prefixes) == 0 {
		return nil, fmt.Errorf("core: sites need prefixes to exchange traffic")
	}
	f := trafgen.NewFlow(name, from.CE,
		firstHost(from.Spec.Prefixes[0]), firstHost(to.Spec.Prefixes[0]), dstPort)
	f.VPN = from.Spec.VPN
	b.registerFlow(f)
	return f, nil
}

// firstHost returns the .1 address of a prefix.
func firstHost(p addr.Prefix) addr.IPv4 { return p.Addr + 1 }

// FlowBetweenHosts creates a measured flow originating at a specific
// workstation behind the origin site's CE (SiteSpec.Hosts must cover the
// index) and addressed to a specific workstation of the target site.
func (b *Backbone) FlowBetweenHosts(name, fromSite string, fromHost int, toSite string, toHost int, dstPort uint16) (*trafgen.Flow, error) {
	from, ok := b.sites[fromSite]
	if !ok {
		return nil, fmt.Errorf("core: unknown site %q", fromSite)
	}
	to, ok := b.sites[toSite]
	if !ok {
		return nil, fmt.Errorf("core: unknown site %q", toSite)
	}
	if fromHost < 0 || fromHost >= len(from.hosts) {
		return nil, fmt.Errorf("core: site %q has no host %d", fromSite, fromHost)
	}
	if toHost < 0 || toHost >= to.Spec.Hosts {
		return nil, fmt.Errorf("core: site %q has no host %d", toSite, toHost)
	}
	f := trafgen.NewFlow(name, from.hosts[fromHost],
		from.Spec.Prefixes[0].Addr+addr.IPv4(fromHost+1),
		to.Spec.Prefixes[0].Addr+addr.IPv4(toHost+1), dstPort)
	f.VPN = from.Spec.VPN
	b.registerFlow(f)
	return f, nil
}

// ReregisterFlow refreshes the delivery-dispatch key after a caller
// mutates a flow's addressing (Src/Dst/ports). Without this, packets of
// the mutated flow still deliver but stop being credited to its stats.
func (b *Backbone) ReregisterFlow(f *trafgen.Flow) { b.registerFlow(f) }

// registerFlow wires delivery accounting for a flow (dispatch happens in
// onDeliver): its 5-tuple now credits f, and its packets carry the tuple's
// slot. A tuple registered before keeps crediting whichever flow it was
// last registered to.
func (b *Backbone) registerFlow(f *trafgen.Flow) {
	if b.flows == nil {
		b.flows = make(map[packet.FlowKey]*trafgen.Flow)
	}
	key := flowKeyOf(f)
	b.flows[key] = f
	f.Slot = b.slotFor(key)
	b.slots[f.Slot].flow = f
}

// flowKeyOf is the 5-tuple of a flow's packets.
func flowKeyOf(f *trafgen.Flow) packet.FlowKey {
	return packet.FlowKey{
		Src: f.Src, Dst: f.Dst,
		SrcPort: f.SrcPort, DstPort: f.DstPort, Protocol: f.Proto,
	}
}

// AttachAIMD turns a flow into a greedy congestion-controlled bulk source:
// deliveries feed Ack (additive increase), network drops feed Loss
// (multiplicative decrease). Returns the source; call Start on it.
func (b *Backbone) AttachAIMD(f *trafgen.Flow, payload int, stop sim.Time) *trafgen.AIMD {
	a := trafgen.NewAIMD(b.Net, f, payload, stop)
	key := flowKeyOf(f)
	if b.aimd == nil {
		b.aimd = make(map[packet.FlowKey]*trafgen.AIMD)
		// AIMD acks ride the barrier's time-sorted delivery stream.
		b.disableLocalDeliver()
		prevDrop := b.Net.OnDrop
		b.Net.OnDrop = func(at topo.NodeID, p *packet.Packet, reason packet.DropReason) {
			if _, src := b.flowOf(b.slotOf(p), p); src != nil {
				src.Loss()
			}
			if prevDrop != nil {
				prevDrop(at, p, reason)
			}
		}
	}
	b.aimd[key] = a
	f.Slot = b.slotFor(key)
	b.slots[f.Slot].aimd = a
	b.RegisterSource(a)
	return a
}
