package ldp

import (
	"mplsvpn/internal/mpls"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/topo"
)

// ApplyIGPDelta carries a converged instance across a batch of link flaps
// the IGP has already absorbed. flapped lists the endpoints of every link
// that went down or came up; changed[n] lists the routers whose route at n
// differs from before the batch (ospf's Instance.AppendChangedDests). It
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
	endpoint := make([]bool, len(p.Speakers))
	for _, pr := range flapped {
		a, z := p.idx.Of(pr[0]), p.idx.Of(pr[1])
		if a < 0 || z < 0 {
			continue
		}
		endpoint[a], endpoint[z] = true, true
		if !p.adjacent(pr[0], pr[1]) {
			p.forget(a, z)
			p.forget(z, a)
		}
	}
	pairs := 0
	for n, sp := range p.Speakers {
		if endpoint[n] {
			p.advertise(sp, n)
			for f := range p.Speakers {
				if f != n {
					p.reinstall(sp, f)
					pairs++
				}
			}
			continue
		}
		for _, d := range changed[sp.Node] {
			if f := p.idx.Of(d); f >= 0 && f != n {
				p.reinstall(sp, f)
				pairs++
			}
		}
	}
	return pairs
}

// reinstall re-derives sp's ILM and FTN state for one foreign FEC from the
// IGP's current next hops.
func (p *Protocol) reinstall(sp *Speaker, f int) {
	hops := p.nextHopsFor(sp, f)
	if len(hops) == 0 {
		if sp.local[f] != noLabel {
			sp.LFIB.UnbindILM(sp.local[f])
		}
		sp.FTN.Unbind(p.fec(f))
		if p.Mode == Ordered {
			p.withdraw(sp, f)
		} else {
			p.advertise(sp, f)
		}
		return
	}
	ilm := make([]mpls.NHLFE, len(hops))
	ftn := make([]mpls.NHLFE, len(hops))
	for i, lid := range hops {
		out := p.localFor(p.Speaker(p.G.Link(lid).To), f)
		ilm[i] = mpls.NHLFE{Op: mpls.OpSwap, OutLabel: out, OutLink: lid}
		ftn[i] = mpls.NHLFE{Op: mpls.OpPush, OutLabel: out, OutLink: lid}
	}
	sp.LFIB.SetILM(p.advertise(sp, f), ilm)
	sp.FTN.BindSet(p.fec(f), ftn)
}

// localFor returns sp's label for FEC f, allocating and advertising it on
// first need.
func (p *Protocol) localFor(sp *Speaker, f int) packet.Label {
	if sp.local[f] != noLabel {
		return sp.local[f]
	}
	return p.advertise(sp, f)
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

// forget drops every binding speaker n learned from peer (session down).
func (p *Protocol) forget(n, peer int) {
	for f := range p.Speakers[n].fromNeighbor {
		p.Speakers[n].unlearn(f, peer)
	}
}

// advertise makes sure every adjacent speaker holds sp's binding for FEC f,
// counting one mapping message per neighbour that did not, and returns the
// label (allocated here if sp never had one).
func (p *Protocol) advertise(sp *Speaker, f int) packet.Label {
	if sp.local[f] == noLabel {
		sp.local[f] = sp.Alloc.Alloc()
	}
	n := p.idx.Of(sp.Node)
	p.peers(sp, func(peer int) {
		if peer >= 0 && p.Speakers[peer].learn(f, n, sp.local[f]) {
			p.MessagesSent++
		}
	})
	return sp.local[f]
}

// withdraw removes sp's binding for FEC f from every adjacent speaker,
// counting one withdraw message per neighbour that held it.
func (p *Protocol) withdraw(sp *Speaker, f int) {
	n := p.idx.Of(sp.Node)
	p.peers(sp, func(peer int) {
		if peer >= 0 && p.Speakers[peer].unlearn(f, n) {
			p.MessagesSent++
		}
	})
}
