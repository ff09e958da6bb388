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
//
// A FEC is a speaker's loopback, so speakers, FECs and neighbours are all
// named by one index, the speaker's rank by node ID (topo.Ranks, as in
// ospf): Speakers, each speaker's bindings by FEC, and the session states
// are slices indexed by it, and the prefix appears only where a table or a
// checkpoint wants it.
package ldp

import (
	"fmt"
	"slices"

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
	p     *Protocol

	// local[f] is the label this router advertised for FEC f, noLabel if
	// none.
	local []packet.Label
	// fromNeighbor[f] lists the labels neighbours advertised for FEC f,
	// ascending by neighbour. A nil row is a FEC nothing was ever learned
	// for; one emptied by forget or withdraw stays non-nil, as the map entry
	// it replaces stayed behind, and checkpoints tell the two apart.
	fromNeighbor [][]binding
	// deg counts the links to other speakers: all a row can come to hold.
	deg int
	// block is where new rows are carved from, deg bindings each, so the
	// speaker's rows are a few allocations, not one per FEC.
	block []binding
}

// binding is the label the speaker of rank from advertised for a FEC.
type binding struct {
	from  int32
	label packet.Label
}

// noLabel marks a FEC the speaker has no label for.
const noLabel = packet.MaxLabel + 1

func learned(row *[]binding) bool { return *row != nil }

// LocalBinding returns the label this speaker advertised for fec.
func (s *Speaker) LocalBinding(fec addr.Prefix) (packet.Label, bool) {
	if f := s.p.fecRank(fec); f >= 0 && s.local[f] != noLabel {
		return s.local[f], true
	}
	return 0, false
}

// find returns the position in row of neighbour from's binding, or where it
// would go.
func find(row []binding, from int) (int, bool) {
	i := 0
	for i < len(row) && int(row[i].from) < from {
		i++
	}
	return i, i < len(row) && int(row[i].from) == from
}

// learn records the label neighbour from advertised for FEC f and reports
// whether that was news.
func (s *Speaker) learn(f, from int, label packet.Label) bool {
	row := s.fromNeighbor[f]
	i, have := find(row, from)
	if have {
		if row[i].label == label {
			return false
		}
		row[i].label = label
		return true
	}
	if row == nil {
		row = s.newRow()
	}
	s.fromNeighbor[f] = slices.Insert(row, i, binding{from: int32(from), label: label})
	return true
}

// newRow returns an empty row with room for a binding from every neighbour,
// capped there so that it never grows into the next row of its block. A
// block holds a row for every FEC.
func (s *Speaker) newRow() []binding {
	if cap(s.block)-len(s.block) < s.deg {
		s.block = make([]binding, 0, len(s.fromNeighbor)*s.deg)
	}
	n := len(s.block)
	s.block = s.block[:n+s.deg]
	return s.block[n : n : n+s.deg]
}

// unlearn drops neighbour from's binding for FEC f and reports whether there
// was one.
func (s *Speaker) unlearn(f, from int) bool {
	i, have := find(s.fromNeighbor[f], from)
	if have {
		s.fromNeighbor[f] = slices.Delete(s.fromNeighbor[f], i, i+1)
	}
	return have
}

// mapping is one advertisement in flight: speakers and the FEC by rank.
type mapping struct {
	from, to, fec int
	label         packet.Label
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
	// Speakers holds the protocol's routers in rank order; Speaker finds one
	// by node.
	Speakers []*Speaker
	idx      *topo.Ranks

	// MessagesSent counts label mapping and withdraw messages over the
	// instance's life: Converge's flood (the E1 metric) plus whatever each
	// ApplyIGPDelta would put on the wire. Rounds counts Converge's flooding
	// waves only.
	MessagesSent int
	Rounds       int

	// Session machinery (session.go): adjacency states by rank, and flap
	// counters.
	sessions      []SessState
	SessionFlaps  int
	StaleBindings int
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
	p := &Protocol{G: g, IGP: igp, idx: topo.RanksOf(nodes)}
	n := len(p.idx.Nodes)
	p.sessions = make([]SessState, n)
	for _, node := range p.idx.Nodes {
		sp := &Speaker{
			Node:         node,
			Alloc:        mpls.NewAllocator(),
			LFIB:         mpls.NewLFIB(),
			FTN:          mpls.NewFTN(),
			p:            p,
			local:        make([]packet.Label, n),
			fromNeighbor: make([][]binding, n),
		}
		for f := range sp.local {
			sp.local[f] = noLabel
		}
		for _, lid := range g.OutLinks(node) {
			if p.idx.Of(g.Link(lid).To) >= 0 {
				sp.deg++
			}
		}
		p.Speakers = append(p.Speakers, sp)
	}
	return p
}

// Speaker returns the speaker at router n, nil for a node that runs none.
func (p *Protocol) Speaker(n topo.NodeID) *Speaker {
	if r := p.idx.Of(n); r >= 0 {
		return p.Speakers[r]
	}
	return nil
}

// UseTables points speaker n at externally owned label tables, letting LDP
// and RSVP-TE share one label space and one LFIB per router (as a real LSR
// does). Call before Converge.
func (p *Protocol) UseTables(n topo.NodeID, alloc *mpls.Allocator, lfib *mpls.LFIB, ftn *mpls.FTN) {
	sp := p.Speaker(n)
	sp.Alloc = alloc
	sp.LFIB = lfib
	sp.FTN = ftn
}

// fec returns the FEC of rank f: the loopback of the speaker of that rank.
func (p *Protocol) fec(f int) addr.Prefix {
	return addr.HostPrefix(ospf.Loopback(p.idx.Nodes[f]))
}

// fecRank returns the rank of the speaker whose loopback fec is, -1 if it is
// nobody's.
func (p *Protocol) fecRank(fec addr.Prefix) int {
	if fec.Len != 32 {
		return -1
	}
	return p.idx.Of(topo.NodeID(fec.Addr - ospf.Loopback(0)))
}

// nextHopsFor returns every ECMP next-hop link from speaker n toward the
// owner of FEC f.
func (p *Protocol) nextHopsFor(n *Speaker, f int) []topo.LinkID {
	r, _ := p.IGP.Instance(n.Node).RouteTo(p.idx.Nodes[f])
	return r.NextHops
}

// peers calls fn for each up link out of sp with the rank of the speaker at
// its far end, -1 for a neighbour that runs none (a CE).
func (p *Protocol) peers(sp *Speaker, fn func(peer int)) {
	for _, lid := range p.G.OutLinks(sp.Node) {
		if l := p.G.Link(lid); !l.Down {
			fn(p.idx.Of(l.To))
		}
	}
}

// Converge distributes labels for every router loopback until quiescence
// and installs ILM/FTN state. Requires the IGP to have converged first.
// Each speaker's FTN and LFIB are sized once, for a binding to every other
// speaker's loopback.
func (p *Protocol) Converge() {
	for _, sp := range p.Speakers {
		sp.FTN.Grow(len(p.Speakers) - 1)
		sp.LFIB.Grow(len(p.Speakers) - 1)
	}
	var inflight, next []mapping
	// send queues sp's binding for FEC f to every neighbour; one to a
	// neighbour that runs no speaker (a CE) is sent, counted and lost.
	send := func(sp *Speaker, from, f int) {
		p.peers(sp, func(to int) {
			p.MessagesSent++
			if to >= 0 {
				inflight = append(inflight, mapping{from: from, to: to, fec: f, label: sp.local[f]})
			}
		})
	}

	// Egress origination: every router advertises a binding for its own
	// loopback to all neighbors — implicit null when PHP is on (the
	// default), a real label otherwise.
	for n, sp := range p.Speakers {
		sp.local[n] = packet.LabelImplicitNull
		if p.DisablePHP {
			sp.local[n] = sp.Alloc.Alloc()
			sp.LFIB.BindILM(sp.local[n], mpls.NHLFE{Op: mpls.OpPop, OutLink: -1})
		}
		send(sp, n, n)
	}

	// Independent control: every speaker allocates and advertises its own
	// binding for every FEC immediately, without waiting for a downstream
	// binding. Convergence then takes a single exchange instead of a wave
	// per hop — at the price that a router may briefly advertise an LSP it
	// cannot yet complete (the blackhole window ordered mode avoids).
	if p.Mode == Independent {
		for n, sp := range p.Speakers {
			for f := range p.Speakers {
				if f != n {
					sp.local[f] = sp.Alloc.Alloc()
					send(sp, n, f)
				}
			}
		}
	}

	for len(inflight) > 0 {
		p.Rounds++
		next = next[:0]
		for _, m := range inflight {
			next = p.accept(m, next)
		}
		inflight, next = next, inflight
	}
}

// accept processes one received mapping at m.to and appends to out any
// further advertisements it triggers.
func (p *Protocol) accept(m mapping, out []mapping) []mapping {
	sp := p.Speakers[m.to]
	if !sp.learn(m.fec, m.from, m.label) {
		return out // duplicate
	}

	// Install only if the advertiser is one of our IGP (ECMP) next hops
	// for the FEC.
	var nhLink topo.LinkID = -1
	var nhs []topo.LinkID
	if m.fec != m.to {
		nhs = p.nextHopsFor(sp, m.fec)
		for _, lid := range nhs {
			if p.idx.Of(p.G.Link(lid).To) == m.from {
				nhLink = lid
				break
			}
		}
	}
	if nhLink < 0 {
		return out
	}

	// Allocate (once) our local label for this FEC; each equal-cost next
	// hop contributes its own ILM/FTN member with that neighbor's label.
	first := sp.local[m.fec] == noLabel
	if first {
		sp.local[m.fec] = sp.Alloc.Alloc()
	}
	// The swap is the transit state; the push is the ingress state, where
	// unlabelled traffic to the FEC enters the LSP.
	local, fec := sp.local[m.fec], p.fec(m.fec)
	swap := mpls.NHLFE{Op: mpls.OpSwap, OutLabel: m.label, OutLink: nhLink}
	push := mpls.NHLFE{Op: mpls.OpPush, OutLabel: m.label, OutLink: nhLink}
	if es, _ := sp.LFIB.LookupILMAll(local); es == nil {
		// The FEC's first member: its sets are made with room for every
		// equal-cost next hop, so the members still to come are added in
		// place and leave no hole in either arena.
		sp.LFIB.ResetILM(local, len(nhs))
		sp.LFIB.ResetILM(local, 1)[0] = swap
		sp.FTN.BindWithRoom(fec, push, len(nhs))
	} else {
		sp.LFIB.AddILM(local, swap)
		sp.FTN.AddBind(fec, push)
	}

	// Independent mode already advertised everything up front. Ordered
	// control advertises upstream once the first downstream binding
	// completes the path (additional ECMP members refine the set without
	// re-advertising — the local label is unchanged).
	if p.Mode == Independent || !first {
		return out
	}
	p.peers(sp, func(to int) {
		if to == m.from {
			// Split horizon spares the flood a message that could trigger
			// nothing, not the neighbour the binding: a downstream-
			// unsolicited speaker sends every binding to every peer, and
			// the retention database must say so, or a fresh flood and an
			// instance carried across link flaps by ApplyIGPDelta would
			// disagree on what each speaker has learned.
			p.Speakers[m.from].learn(m.fec, m.to, local)
			return
		}
		p.MessagesSent++
		if to >= 0 {
			out = append(out, mapping{from: m.to, to: to, fec: m.fec, label: local})
		}
	})
	return out
}

// TransportEntry returns the NHLFE an ingress at node n uses to reach the
// loopback of egress: the LSP entry point BGP/MPLS VPNs stack their VPN
// label under.
func (p *Protocol) TransportEntry(n, egress topo.NodeID) (mpls.NHLFE, bool) {
	if n == egress {
		return mpls.NHLFE{}, false
	}
	return p.Speaker(n).FTN.Lookup(ospf.Loopback(egress))
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
		e, ok := p.Speaker(at).LFIB.LookupILM(label)
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
