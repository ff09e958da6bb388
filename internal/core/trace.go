package core

import (
	"fmt"
	"strings"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/device"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/topo"
)

// Hop is one step of a control-plane trace: the router reached and what it
// did to the packet.
type Hop struct {
	Node   topo.NodeID
	Name   string
	Action string
	Stack  packet.LabelStack
}

// Trace is the result of TraceRoute: the hop sequence and the outcome.
type Trace struct {
	Hops      []Hop
	Delivered bool
	Loop      bool   // the walk ran out of hops: the tables forward in a circle
	Reason    string // why the trace ended
}

// String renders the trace like an annotated traceroute.
func (t *Trace) String() string {
	var b strings.Builder
	for i, h := range t.Hops {
		fmt.Fprintf(&b, "%2d  %-16s %s", i+1, h.Name, h.Action)
		if h.Stack.Depth() > 0 {
			fmt.Fprintf(&b, "  stack=%s", h.Stack.String())
		}
		b.WriteByte('\n')
	}
	if t.Delivered {
		fmt.Fprintf(&b, "    delivered (%s)\n", t.Reason)
	} else {
		fmt.Fprintf(&b, "    NOT delivered: %s\n", t.Reason)
	}
	return b.String()
}

// TraceRoute walks the forwarding tables from a site's CE toward dst,
// recording every label operation — an LSP traceroute computed from
// control-plane state without injecting traffic. dscp selects the class
// (it matters when TE steering or per-VPN SLAs are in play).
func (b *Backbone) TraceRoute(fromSite string, dst addr.IPv4, dscp packet.DSCP) *Trace {
	tr := &Trace{}
	rec, ok := b.sites[fromSite]
	if !ok {
		tr.Reason = fmt.Sprintf("unknown site %q", fromSite)
		return tr
	}
	// Build the probe exactly as a host behind the CE would.
	p := &packet.Packet{
		IP: packet.IPv4Header{
			DSCP: dscp, TTL: 64, Protocol: packet.ProtoUDP,
			Src: firstHost(rec.Spec.Prefixes[0]), Dst: dst,
		},
		L4:      packet.L4Header{SrcPort: 33434, DstPort: 33434},
		Payload: 0,
	}

	at := rec.CE
	inLink := topo.LinkID(-1)
	for hop := 0; hop < b.G.NumNodes()+4; hop++ {
		r := b.routers[at]
		if r == nil {
			tr.Reason = fmt.Sprintf("no router at node %d", at)
			return tr
		}
		before := p.MPLS.Depth()
		v := r.Receive(b.E.Now(), p, inLink)
		action := describeAction(before, p, v)
		tr.Hops = append(tr.Hops, Hop{Node: at, Name: r.Name, Action: action, Stack: p.MPLS.Clone()})
		if v.Dropped() {
			tr.Reason = v.Drop.Error()
			return tr
		}
		if v.Deliver {
			tr.Delivered = true
			tr.Reason = fmt.Sprintf("at %s", r.Name)
			return tr
		}
		l := b.G.Link(v.OutLink)
		if l.Down {
			tr.Reason = fmt.Sprintf("link %s -> %s is down", b.G.Name(l.From), b.G.Name(l.To))
			return tr
		}
		at = l.To
		inLink = v.OutLink
	}
	tr.Loop = true
	tr.Reason = "hop limit exceeded (forwarding loop?)"
	return tr
}

// describeAction summarizes what a router did, from the stack delta.
func describeAction(depthBefore int, p *packet.Packet, v device.Verdict) string {
	after := p.MPLS.Depth()
	switch {
	case v.Dropped():
		return "DROP: " + v.Drop.Error()
	case v.Deliver:
		return "deliver"
	case after > depthBefore:
		n := after - depthBefore
		cls := qos.ClassForEXP(p.MPLS.Top().EXP)
		return fmt.Sprintf("push %d label(s), class %s", n, cls)
	case after < depthBefore:
		if after == 0 {
			return "pop to IP"
		}
		return "pop"
	case after > 0:
		return "swap"
	default:
		return "ip forward"
	}
}
