package ldp

import (
	"mplsvpn/internal/addr"
	"mplsvpn/internal/mpls"
	"mplsvpn/internal/ospf"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/topo"
)

// ApplyIGPDelta carries a converged instance across a batch of link flaps
// the IGP has already absorbed. flapped lists the endpoints of every link
// that went down or came up; changed[n] lists the routers whose route at n
// differs from before the batch (ospf's Instance.TakeChangedDests). It
// returns the number of (router, FEC) pairs whose forwarding state it
// re-derived.
//
// No label changes. A speaker with liberal retention already holds every
// neighbour's binding for every FEC, so a next hop moving is a local table
// rewrite: for router n and the FEC of router d, each IGP next-hop link l
// toward neighbour m contributes {OutLabel: m's label for the FEC, OutLink:
// l}, in the IGP's NextHops order; the set replaces the ILM entry under n's
// own label and the FTN entry for the FEC. With no next hop left
// (partition) both are unbound and n's label stays reserved, so a heal
// brings back the very entry the failure removed. The allocator never hands
// a label out twice, so a label names one (router, FEC) for good and a
// packet in flight can never be switched on a reused label.
//
// The pairs re-derived are the changed ones plus every FEC at both
// endpoints of each flapped link. The endpoints go unconditionally because
// fast reroute rewrites their entries in place (mpls.LFIB.DetourVia) and a
// link that fails and returns inside one detection window leaves the IGP
// with nothing to report.
//
// Sessions: losing the last up link between two speakers makes each forget
// what it learned from the other; a link coming up makes both ends send
// every binding they currently advertise. A speaker advertises its own FEC
// always and, under ordered control, another FEC only while it has a route
// to it: it withdraws the binding from every neighbour when the route goes
// and sends it again when the route returns. MessagesSent counts exactly
// those messages — none for a next-hop change.
func (p *Protocol) ApplyIGPDelta(flapped [][2]topo.NodeID, changed map[topo.NodeID][]topo.NodeID) int {
	endpoint := make(map[topo.NodeID]bool, 2*len(flapped))
	for _, pr := range flapped {
		a, z := pr[0], pr[1]
		if p.Speakers[a] == nil || p.Speakers[z] == nil {
			continue
		}
		endpoint[a], endpoint[z] = true, true
		if !p.adjacent(a, z) {
			p.forget(a, z)
			p.forget(z, a)
		}
	}
	ids := p.sortedNodes()
	pairs := 0
	for _, n := range ids {
		dests := changed[n]
		if endpoint[n] {
			p.advertise(n, addr.HostPrefix(ospf.Loopback(n)))
			dests = ids
		}
		for _, d := range dests {
			if d == n {
				continue
			}
			p.reinstall(n, addr.HostPrefix(ospf.Loopback(d)))
			pairs++
		}
	}
	return pairs
}

// reinstall re-derives n's ILM and FTN state for one foreign FEC from the
// IGP's current next hops.
func (p *Protocol) reinstall(n topo.NodeID, fec addr.Prefix) {
	sp := p.Speakers[n]
	hops := p.nextHopsFor(n, fec)
	if len(hops) == 0 {
		if local, ok := sp.local[fec]; ok {
			sp.LFIB.UnbindILM(local)
		}
		sp.FTN.Unbind(fec)
		if p.Mode == Ordered {
			p.withdraw(n, fec)
		} else {
			p.advertise(n, fec)
		}
		return
	}
	ilm := make([]mpls.NHLFE, len(hops))
	ftn := make([]mpls.NHLFE, len(hops))
	for i, lid := range hops {
		out := p.localFor(p.G.Link(lid).To, fec)
		ilm[i] = mpls.NHLFE{Op: mpls.OpSwap, OutLabel: out, OutLink: lid}
		ftn[i] = mpls.NHLFE{Op: mpls.OpPush, OutLabel: out, OutLink: lid}
	}
	sp.LFIB.SetILM(p.advertise(n, fec), ilm)
	sp.FTN.BindSet(fec, ftn)
}

// localFor returns n's label for fec, allocating and advertising it on
// first need.
func (p *Protocol) localFor(n topo.NodeID, fec addr.Prefix) packet.Label {
	if l, ok := p.Speakers[n].local[fec]; ok {
		return l
	}
	return p.advertise(n, fec)
}

// adjacent reports whether an up link joins a to z.
func (p *Protocol) adjacent(a, z topo.NodeID) bool {
	for _, lid := range p.G.OutLinks(a) {
		if l := p.G.Link(lid); l.To == z && !l.Down {
			return true
		}
	}
	return false
}

// forget drops every binding n learned from peer (session down).
func (p *Protocol) forget(n, peer topo.NodeID) {
	for _, byN := range p.Speakers[n].fromNeighbor {
		delete(byN, peer)
	}
}

// advertise makes sure every adjacent speaker holds n's binding for fec,
// counting one mapping message per neighbour that did not, and returns the
// label (allocated here if n never had one).
func (p *Protocol) advertise(n topo.NodeID, fec addr.Prefix) packet.Label {
	sp := p.Speakers[n]
	label, ok := sp.local[fec]
	if !ok {
		label = sp.Alloc.Alloc()
		sp.local[fec] = label
	}
	for _, lid := range p.G.OutLinks(n) {
		l := p.G.Link(lid)
		peer := p.Speakers[l.To]
		if l.Down || peer == nil {
			continue
		}
		if peer.learn(fec, n, label) {
			p.MessagesSent++
		}
	}
	return label
}

// withdraw removes n's binding for fec from every adjacent speaker,
// counting one withdraw message per neighbour that held it.
func (p *Protocol) withdraw(n topo.NodeID, fec addr.Prefix) {
	for _, lid := range p.G.OutLinks(n) {
		l := p.G.Link(lid)
		peer := p.Speakers[l.To]
		if l.Down || peer == nil {
			continue
		}
		if byN := peer.fromNeighbor[fec]; byN != nil {
			if _, have := byN[n]; have {
				delete(byN, n)
				p.MessagesSent++
			}
		}
	}
}
