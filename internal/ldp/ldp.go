// Package ldp implements a Label Distribution Protocol in downstream-
// unsolicited mode with ordered control and liberal label retention (RFC
// 5036 shape): every router advertises label mappings for its own loopback
// FEC, mappings propagate upstream hop by hop, and each router installs
// forwarding state only for mappings received from its IGP next hop toward
// the FEC.
//
// The result is one LSP from every router to every other router's loopback
// — the "set of LSPs to provide connectivity among the different sites"
// (§4) over which BGP/MPLS VPN traffic is tunnelled. Penultimate-hop
// popping is signalled with the implicit-null label.
//
// Converge floods the mappings from nothing; ApplyIGPDelta (delta.go)
// carries a converged instance across link flaps without changing a label.
package ldp

import (
	"fmt"
	"sort"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/mpls"
	"mplsvpn/internal/ospf"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/topo"
)

// Mode selects the label distribution control discipline (an E-series
// ablation: ordered control guarantees a complete downstream path exists
// before traffic can enter an LSP; independent converges in fewer rounds
// but can momentarily blackhole).
type Mode int

// Distribution modes.
const (
	Ordered Mode = iota
	Independent
)

// Speaker is the per-router LDP state.
type Speaker struct {
	Node  topo.NodeID
	Alloc *mpls.Allocator
	LFIB  *mpls.LFIB
	FTN   *mpls.FTN

	// local[fec] is the label this router advertised for fec.
	local map[addr.Prefix]packet.Label
	// fromNeighbor[fec][n] is the label neighbor n advertised for fec.
	fromNeighbor map[addr.Prefix]map[topo.NodeID]packet.Label
}

// LocalBinding returns the label this speaker advertised for fec.
func (s *Speaker) LocalBinding(fec addr.Prefix) (packet.Label, bool) {
	l, ok := s.local[fec]
	return l, ok
}

// learn records the label neighbour from advertised for fec and reports
// whether that was news.
func (s *Speaker) learn(fec addr.Prefix, from topo.NodeID, label packet.Label) bool {
	byN := s.fromNeighbor[fec]
	if byN == nil {
		byN = make(map[topo.NodeID]packet.Label)
		s.fromNeighbor[fec] = byN
	}
	if old, have := byN[from]; have && old == label {
		return false
	}
	byN[from] = label
	return true
}

// mapping is one advertisement in flight.
type mapping struct {
	from  topo.NodeID
	to    topo.NodeID
	fec   addr.Prefix
	label packet.Label
}

// Protocol is the LDP instance covering a topology. It shares the graph and
// the IGP with the rest of the control plane.
type Protocol struct {
	G    *topo.Graph
	IGP  *ospf.Domain
	Mode Mode
	// DisablePHP makes each egress advertise a real label instead of
	// implicit null, so the last hop pops instead of the penultimate one
	// (ultimate-hop popping; the DESIGN.md §4.4 ablation).
	DisablePHP bool
	Speakers   map[topo.NodeID]*Speaker

	// MessagesSent counts label mapping and withdraw messages over the
	// instance's life: Converge's flood (the E1 metric) plus whatever each
	// ApplyIGPDelta would put on the wire. Rounds counts Converge's flooding
	// waves only.
	MessagesSent int
	Rounds       int

	// Session machinery (session.go): adjacency states and flap counters.
	sessions      map[topo.NodeID]SessState
	SessionFlaps  int
	StaleBindings int

	owners map[addr.Prefix]topo.NodeID
}

// New creates the protocol with one speaker per router currently in g.
func New(g *topo.Graph, igp *ospf.Domain) *Protocol {
	nodes := make([]topo.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = topo.NodeID(i)
	}
	return NewOver(g, igp, nodes)
}

// NewOver creates the protocol with speakers only at the given nodes (the
// MPLS-enabled provider routers). CE nodes sharing the graph do not speak
// LDP.
func NewOver(g *topo.Graph, igp *ospf.Domain, nodes []topo.NodeID) *Protocol {
	p := &Protocol{
		G: g, IGP: igp,
		Speakers: make(map[topo.NodeID]*Speaker),
		owners:   make(map[addr.Prefix]topo.NodeID),
	}
	for _, n := range nodes {
		p.owners[addr.HostPrefix(ospf.Loopback(n))] = n
		p.Speakers[n] = &Speaker{
			Node:         n,
			Alloc:        mpls.NewAllocator(),
			LFIB:         mpls.NewLFIB(),
			FTN:          mpls.NewFTN(),
			local:        make(map[addr.Prefix]packet.Label),
			fromNeighbor: make(map[addr.Prefix]map[topo.NodeID]packet.Label),
		}
	}
	return p
}

// UseTables points speaker n at externally owned label tables, letting LDP
// and RSVP-TE share one label space and one LFIB per router (as a real LSR
// does). Call before Converge.
func (p *Protocol) UseTables(n topo.NodeID, alloc *mpls.Allocator, lfib *mpls.LFIB, ftn *mpls.FTN) {
	sp := p.Speakers[n]
	sp.Alloc = alloc
	sp.LFIB = lfib
	sp.FTN = ftn
}

// fecOwner extracts the router owning a loopback FEC.
func (p *Protocol) fecOwner(fec addr.Prefix) (topo.NodeID, bool) {
	n, ok := p.owners[fec]
	return n, ok
}

// nextHopsFor returns every ECMP next-hop link from node n toward the
// owner of fec.
func (p *Protocol) nextHopsFor(n topo.NodeID, fec addr.Prefix) []topo.LinkID {
	owner, ok := p.fecOwner(fec)
	if !ok || owner == n {
		return nil
	}
	r, ok := p.IGP.Instances[n].RouteTo(owner)
	if !ok {
		return nil
	}
	if len(r.NextHops) > 0 {
		return r.NextHops
	}
	return []topo.LinkID{r.NextHop}
}

// Converge distributes labels for every router loopback until quiescence
// and installs ILM/FTN state. Requires the IGP to have converged first.
func (p *Protocol) Converge() {
	var inflight []mapping

	// Egress origination: every router advertises a binding for its own
	// loopback to all neighbors — implicit null when PHP is on (the
	// default), a real label otherwise.
	ids := p.sortedNodes()
	for _, n := range ids {
		fec := addr.HostPrefix(ospf.Loopback(n))
		sp := p.Speakers[n]
		egressLabel := packet.LabelImplicitNull
		if p.DisablePHP {
			egressLabel = sp.Alloc.Alloc()
			sp.LFIB.BindILM(egressLabel, mpls.NHLFE{Op: mpls.OpPop, OutLink: -1})
		}
		sp.local[fec] = egressLabel
		for _, lid := range p.G.OutLinks(n) {
			l := p.G.Link(lid)
			if l.Down {
				continue
			}
			inflight = append(inflight, mapping{from: n, to: l.To, fec: fec, label: egressLabel})
			p.MessagesSent++
		}
	}

	// Independent control: every speaker allocates and advertises its own
	// binding for every FEC immediately, without waiting for a downstream
	// binding. Convergence then takes a single exchange instead of a wave
	// per hop — at the price that a router may briefly advertise an LSP it
	// cannot yet complete (the blackhole window ordered mode avoids).
	if p.Mode == Independent {
		for _, n := range ids {
			sp := p.Speakers[n]
			for _, owner := range ids {
				if owner == n {
					continue
				}
				fec := addr.HostPrefix(ospf.Loopback(owner))
				local := sp.Alloc.Alloc()
				sp.local[fec] = local
				for _, lid := range p.G.OutLinks(n) {
					l := p.G.Link(lid)
					if l.Down {
						continue
					}
					inflight = append(inflight, mapping{from: n, to: l.To, fec: fec, label: local})
					p.MessagesSent++
				}
			}
		}
	}

	for len(inflight) > 0 {
		p.Rounds++
		var next []mapping
		for _, m := range inflight {
			adv := p.accept(m)
			next = append(next, adv...)
		}
		inflight = next
	}
}

// accept processes one received mapping at m.to and returns any further
// advertisements it triggers.
func (p *Protocol) accept(m mapping) []mapping {
	sp := p.Speakers[m.to]
	if sp == nil {
		return nil // neighbor is not an LDP speaker (a CE)
	}
	if !sp.learn(m.fec, m.from, m.label) {
		return nil // duplicate
	}

	// Install only if the advertiser is one of our IGP (ECMP) next hops
	// for the FEC.
	var nhLink topo.LinkID = -1
	for _, lid := range p.nextHopsFor(m.to, m.fec) {
		if p.G.Link(lid).To == m.from {
			nhLink = lid
			break
		}
	}
	if nhLink < 0 {
		return nil
	}

	// Allocate (once) our local label for this FEC; each equal-cost next
	// hop contributes its own ILM/FTN member with that neighbor's label.
	local, have := sp.local[m.fec]
	first := !have
	if !have {
		local = sp.Alloc.Alloc()
		sp.local[m.fec] = local
	}
	sp.LFIB.AddILM(local, mpls.NHLFE{Op: mpls.OpSwap, OutLabel: m.label, OutLink: nhLink})
	// Ingress state: unlabelled traffic to the FEC enters the LSP here.
	sp.FTN.AddBind(m.fec, mpls.NHLFE{Op: mpls.OpPush, OutLabel: m.label, OutLink: nhLink})

	// Independent mode already advertised everything up front.
	if p.Mode == Independent {
		return nil
	}

	// Ordered control: advertise upstream once the first downstream
	// binding completes the path (additional ECMP members refine the set
	// without re-advertising — the local label is unchanged).
	if !first {
		return nil
	}
	var out []mapping
	for _, lid := range p.G.OutLinks(m.to) {
		l := p.G.Link(lid)
		if l.Down {
			continue
		}
		if l.To == m.from {
			// Split horizon spares the flood a message that could trigger
			// nothing, not the neighbour the binding: a downstream-
			// unsolicited speaker sends every binding to every peer, and
			// the retention database must say so, or a fresh flood and an
			// instance carried across link flaps by ApplyIGPDelta would
			// disagree on what each speaker has learned.
			p.Speakers[m.from].learn(m.fec, m.to, local)
			continue
		}
		out = append(out, mapping{from: m.to, to: l.To, fec: m.fec, label: local})
		p.MessagesSent++
	}
	return out
}

func (p *Protocol) sortedNodes() []topo.NodeID {
	ids := make([]topo.NodeID, 0, len(p.Speakers))
	for n := range p.Speakers {
		ids = append(ids, n)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TransportEntry returns the NHLFE an ingress at node n uses to reach the
// loopback of egress: the LSP entry point BGP/MPLS VPNs stack their VPN
// label under.
func (p *Protocol) TransportEntry(n, egress topo.NodeID) (mpls.NHLFE, bool) {
	if n == egress {
		return mpls.NHLFE{}, false
	}
	return p.Speakers[n].FTN.Lookup(ospf.Loopback(egress))
}

// TraceLSP follows the LSP from ingress toward the owner of fec, returning
// the sequence of nodes traversed. It validates ILM consistency along the
// way and is used by the tests as an end-to-end invariant check.
func (p *Protocol) TraceLSP(ingress topo.NodeID, egress topo.NodeID) ([]topo.NodeID, error) {
	nodes := []topo.NodeID{ingress}
	entry, ok := p.TransportEntry(ingress, egress)
	if !ok {
		return nil, fmt.Errorf("ldp: no FTN entry at %v for %v", ingress, egress)
	}
	label := entry.OutLabel
	at := p.G.Link(entry.OutLink).To
	nodes = append(nodes, at)
	for hop := 0; hop < p.G.NumNodes()+2; hop++ {
		if label == packet.LabelImplicitNull {
			// PHP happened upstream; we must be at the egress.
			if at != egress {
				return nodes, fmt.Errorf("ldp: unlabelled before egress at %v", at)
			}
			return nodes, nil
		}
		if at == egress {
			return nodes, nil
		}
		e, ok := p.Speakers[at].LFIB.LookupILM(label)
		if !ok {
			return nodes, fmt.Errorf("ldp: broken LSP at %v: no ILM for %d", at, label)
		}
		label = e.OutLabel
		at = p.G.Link(e.OutLink).To
		nodes = append(nodes, at)
	}
	return nodes, fmt.Errorf("ldp: LSP loop detected from %v to %v", ingress, egress)
}

// TotalILMEntries sums installed ILM entries across all routers (E1
// state metric).
func (p *Protocol) TotalILMEntries() int {
	n := 0
	for _, sp := range p.Speakers {
		n += sp.LFIB.ILMSize()
	}
	return n
}
