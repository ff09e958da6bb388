// Package mpls implements the label-switching data plane of an LSR: the
// label allocator, the three forwarding tables of the MPLS architecture
// (FTN: FEC-to-NHLFE at ingress; ILM: incoming label map at transit; NHLFE:
// next-hop label forwarding entries), and the per-packet operations —
// push, swap, pop, penultimate-hop popping, and TTL handling.
//
// This is the machinery behind the paper's §3 claim: "The labels enable
// routers and switches to forward traffic based on information in the
// labels instead of having to inspect the various fields deep within each
// and every packet." Here that is literal: the ILM is a slice and the
// incoming label its index (LFIB). Experiment E4 measures exactly that: ILM
// lookup versus longest-prefix match.
package mpls

import (
	"slices"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/topo"
)

// Op is the label operation an NHLFE applies.
type Op int

// Label operations.
const (
	OpPush Op = iota // add OutLabel on top (ingress)
	OpSwap           // replace top with OutLabel (transit)
	OpPop            // remove top (egress or PHP)
)

func (o Op) String() string {
	switch o {
	case OpPush:
		return "push"
	case OpSwap:
		return "swap"
	default:
		return "pop"
	}
}

// NHLFE is a next-hop label forwarding entry.
type NHLFE struct {
	Op       Op
	OutLabel packet.Label // meaningful for push/swap; ImplicitNull requests PHP
	OutLink  topo.LinkID  // egress interface; -1 = local delivery

	// Fast-reroute state (RFC 4090 facility backup): when BypassLabel is
	// non-zero the entry is detoured — after the normal swap/pop the
	// bypass label is pushed on top and the packet leaves via BypassLink
	// toward the merge point instead of the (failed) OutLink.
	BypassLabel packet.Label
	BypassLink  topo.LinkID
}

// detoured reports whether FRR redirection is active on the entry.
func (e NHLFE) detoured() bool { return e.BypassLabel != 0 }

// Allocator hands out labels from the per-platform dynamic range. Each LSR
// owns one.
type Allocator struct {
	next packet.Label
}

// NewAllocator starts allocation at the first dynamic label.
func NewAllocator() *Allocator { return &Allocator{next: packet.MinDynamicLabel} }

// Alloc returns a fresh label.
func (a *Allocator) Alloc() packet.Label {
	l := a.next
	if l > packet.MaxLabel {
		panic("mpls: label space exhausted")
	}
	a.next++
	return l
}

// Allocated returns how many labels have been handed out (E1 state metric).
func (a *Allocator) Allocated() int { return int(a.next - packet.MinDynamicLabel) }

// LFIB is one router's label forwarding information base: the ILM for
// labelled traffic plus an FTN per context (the global table and one per
// VRF) for unlabelled traffic entering an LSP.
//
// The ILM is a slice indexed by the incoming label — "the label is an
// index", literally: a router allocates its labels densely from 16 and
// never reuses one, so the slice is as long as its allocator has counted
// and a transit lookup is one bounds check. A nil element is an unbound
// label; a bound one is never nil, even when its action set is empty.
type LFIB struct {
	ilm   [][]NHLFE
	bound int // non-nil elements of ilm

	// Counters for the forwarding experiments.
	Swapped int
	Pushed  int
	Popped  int

	sets oneSets // control plane only: after what a packet touches
}

// NewLFIB returns an empty LFIB.
func NewLFIB() *LFIB { return &LFIB{} }

// BindILM installs the action for an incoming label, replacing any
// existing set.
func (f *LFIB) BindILM(in packet.Label, e NHLFE) { f.SetILM(in, []NHLFE{e}) }

// AddILM adds an equal-cost action for an incoming label (ECMP), keeping
// the set in ascending OutLink order — the IGP's NextHops order, so the
// member a flow hashes to does not depend on the order mappings arrived in.
// Duplicate out-links are ignored.
func (f *LFIB) AddILM(in packet.Label, e NHLFE) { f.SetILM(in, f.sets.add(f.actions(in), e)) }

// Grow makes room for n more labels' action sets started by AddILM, so
// that a set of one is not an allocation of its own.
func (f *LFIB) Grow(n int) { f.sets.grow(n) }

// SetILM replaces the whole action set for an incoming label. The LFIB
// keeps es; the caller must not reuse it.
func (f *LFIB) SetILM(in packet.Label, es []NHLFE) {
	if in > packet.MaxLabel {
		panic("mpls: label outside the 20-bit space")
	}
	if int(in) >= len(f.ilm) {
		f.ilm = append(f.ilm, make([][]NHLFE, int(in)+1-len(f.ilm))...)
	}
	if es == nil {
		es = []NHLFE{}
	}
	if f.ilm[in] == nil {
		f.bound++
	}
	f.ilm[in] = es
}

// actions returns the action set bound to an incoming label, nil if none.
func (f *LFIB) actions(in packet.Label) []NHLFE {
	if int(in) >= len(f.ilm) {
		return nil
	}
	return f.ilm[in]
}

// insertByOutLink returns es with e inserted at its OutLink position; es is
// returned unchanged when it already holds a member on e.OutLink.
func insertByOutLink(es []NHLFE, e NHLFE) []NHLFE {
	i := 0
	for i < len(es) && es[i].OutLink < e.OutLink {
		i++
	}
	if i < len(es) && es[i].OutLink == e.OutLink {
		return es
	}
	es = append(es, NHLFE{})
	copy(es[i+1:], es[i:])
	es[i] = e
	return es
}

// oneSets hands out one-member action sets from one array, so that a set
// of one is not an allocation of its own. Each set is capped at its one
// element: a second member (insertByOutLink) copies it out.
type oneSets []NHLFE

// grow makes room for n more sets.
func (s *oneSets) grow(n int) { *s = slices.Grow((*s)[len(*s):], n) }

// add returns es with e inserted by out-link, taking a one-member set from
// the array when es is empty and the array has room.
func (s *oneSets) add(es []NHLFE, e NHLFE) []NHLFE {
	if len(es) > 0 || len(*s) == cap(*s) {
		return insertByOutLink(es, e)
	}
	n := len(*s)
	*s = append(*s, e)
	return (*s)[n : n+1 : n+1]
}

// ResetILM rebinds an incoming label to n actions and returns them for the
// caller to overwrite, every one: the set already bound, resized, when its
// array has room for n, a fresh set otherwise. A control plane re-deriving
// an entry whose next-hop count did not grow past what it once was
// allocates nothing. (Every set owns its array: a one-member cell is capped
// at one.)
func (f *LFIB) ResetILM(in packet.Label, n int) []NHLFE {
	es := f.actions(in)
	if es == nil || cap(es) < n {
		es = make([]NHLFE, n)
	}
	f.SetILM(in, es[:n])
	return es[:n]
}

// UnbindILM removes the action for an incoming label (LSP teardown).
func (f *LFIB) UnbindILM(in packet.Label) {
	if f.actions(in) != nil {
		f.ilm[in] = nil
		f.bound--
	}
}

// ILMSize returns the number of incoming-label bindings.
func (f *LFIB) ILMSize() int { return f.bound }

// LookupILM returns the first action for an incoming label.
func (f *LFIB) LookupILM(in packet.Label) (NHLFE, bool) {
	es := f.actions(in)
	if len(es) == 0 {
		return NHLFE{}, false
	}
	return es[0], true
}

// LookupILMAll returns every equal-cost action for an incoming label.
func (f *LFIB) LookupILMAll(in packet.Label) ([]NHLFE, bool) {
	es := f.actions(in)
	return es, len(es) > 0
}

// ProcessLabeled applies the ILM action to a labelled packet *in place* and
// returns the egress link. out < 0 with drop == DropNone means the packet
// reached its egress here (stack empty after pop, deliver via IP); a
// non-zero drop reason means the packet must be discarded. Reasons are
// typed sentinels (packet.DropReason), never formatted errors: the hot
// path stays allocation-free and observers format on demand.
//
// PHP: an NHLFE whose OutLabel is ImplicitNull pops instead of swapping, so
// the packet arrives at the real egress unlabelled and saves that router a
// lookup — the default behaviour signalled by LDP in this system.
func (f *LFIB) ProcessLabeled(p *packet.Packet) (out topo.LinkID, labeled bool, drop packet.DropReason) {
	top := p.MPLS.Top()
	es := f.actions(top.Label)
	if len(es) == 0 {
		// No ILM binding: the MPLS equivalent of a routing black hole; the
		// packet must be dropped (RFC 3031 §3.18).
		return -1, false, packet.DropNoLabelBinding
	}
	// ECMP: the flow hash pins each flow to one member of the set.
	e := es[int(p.FlowHash())%len(es)]
	if top.TTL <= 1 {
		return -1, false, packet.DropTTLExpired
	}
	switch e.Op {
	case OpSwap:
		if e.OutLabel == packet.LabelImplicitNull {
			// Penultimate hop popping: strip and forward unlabelled (or
			// with the remaining stack).
			p.MPLS.Pop()
			f.Popped++
			if p.MPLS.Depth() == 0 {
				// TTL continuity: copy the label TTL back into the IP header.
				p.IP.TTL = top.TTL - 1
				out, labeled := f.detour(p, e, top.EXP, e.OutLink, false)
				return out, labeled, packet.DropNone
			}
			p.MPLS.SetTopTTL(top.TTL - 1)
			out, labeled := f.detour(p, e, top.EXP, e.OutLink, true)
			return out, labeled, packet.DropNone
		}
		p.MPLS.SetTop(packet.LabelStackEntry{Label: e.OutLabel, EXP: top.EXP, TTL: top.TTL - 1})
		f.Swapped++
		out, labeled := f.detour(p, e, top.EXP, e.OutLink, true)
		return out, labeled, packet.DropNone
	case OpPop:
		p.MPLS.Pop()
		f.Popped++
		if p.MPLS.Depth() == 0 {
			p.IP.TTL = top.TTL - 1
			out, labeled := f.detour(p, e, top.EXP, e.OutLink, false)
			return out, labeled, packet.DropNone
		}
		p.MPLS.SetTopTTL(top.TTL - 1)
		out, labeled := f.detour(p, e, top.EXP, e.OutLink, true)
		return out, labeled, packet.DropNone
	default:
		return -1, false, packet.DropBadILMOp
	}
}

// detour applies the FRR bypass encapsulation after the normal operation:
// push the bypass label, exit via the bypass link.
func (f *LFIB) detour(p *packet.Packet, e NHLFE, exp uint8, out topo.LinkID, labeled bool) (topo.LinkID, bool) {
	if !e.detoured() {
		return out, labeled
	}
	ttl := p.IP.TTL
	if p.MPLS.Depth() > 0 {
		ttl = p.MPLS.Top().TTL
	}
	p.MPLS.Push(packet.LabelStackEntry{Label: e.BypassLabel, EXP: exp, TTL: ttl})
	f.Pushed++
	return e.BypassLink, true
}

// DetourVia rewrites every ILM entry that exits failedLink to detour
// through a bypass tunnel (push bypassLabel, exit via bypassLink) — the
// point-of-local-repair action of RFC 4090 facility backup. It returns the
// number of entries detoured. A bypassLabel of ImplicitNull means the
// bypass is a direct parallel path: entries just switch output link.
func (f *LFIB) DetourVia(failedLink topo.LinkID, bypassLabel packet.Label, bypassLink topo.LinkID) int {
	n := 0
	for _, es := range f.ilm {
		for i, e := range es {
			if e.OutLink != failedLink || e.OutLink < 0 {
				continue
			}
			if bypassLabel == packet.LabelImplicitNull {
				es[i].OutLink = bypassLink
			} else {
				es[i].BypassLabel = bypassLabel
				es[i].BypassLink = bypassLink
			}
			n++
		}
	}
	return n
}

// Push encapsulates p with label, copying the class into EXP and seeding
// the label TTL from the IP TTL (uniform TTL model).
func (f *LFIB) Push(p *packet.Packet, label packet.Label, exp uint8) {
	ttl := p.IP.TTL
	if p.MPLS.Depth() > 0 {
		ttl = p.MPLS.Top().TTL
	}
	p.MPLS.Push(packet.LabelStackEntry{Label: label, EXP: exp, TTL: ttl})
	f.Pushed++
}

// FTN is the FEC-to-NHLFE map consulted for unlabelled packets entering
// the MPLS domain. One FTN exists per routing context (global + per VRF).
// Each FEC may carry several equal-cost entries (ECMP).
type FTN struct {
	table *addr.Table[[]NHLFE]
	sets  oneSets
}

// NewFTN returns an empty FTN.
func NewFTN() *FTN { return &FTN{table: addr.NewTable[[]NHLFE]()} }

// Grow makes room for n more FEC bindings made through AddBind, so that
// making them allocates neither table nodes nor one-member sets.
func (f *FTN) Grow(n int) {
	f.table.Grow(n)
	f.sets.grow(n)
}

// Bind associates a FEC (prefix) with an NHLFE, replacing any existing set.
func (f *FTN) Bind(fec addr.Prefix, e NHLFE) { f.table.Insert(fec, []NHLFE{e}) }

// AddBind adds an equal-cost entry for a FEC (ECMP) in ascending OutLink
// order, like AddILM; duplicate out-links are ignored. It is one descent of
// the table.
func (f *FTN) AddBind(fec addr.Prefix, e NHLFE) {
	es, _ := f.table.Upsert(fec)
	*es = f.sets.add(*es, e)
}

// ResetSet is ResetILM for a FEC: it binds fec to n entries, the set
// already bound when its array has room for n, and returns them for the
// caller to overwrite, every one.
func (f *FTN) ResetSet(fec addr.Prefix, n int) []NHLFE {
	es, _ := f.table.Upsert(fec)
	if cap(*es) < n {
		*es = make([]NHLFE, n)
	}
	*es = (*es)[:n]
	return *es
}

// Unbind removes a FEC binding (inter-AS stitch teardown). Unknown FECs
// are a no-op.
func (f *FTN) Unbind(fec addr.Prefix) { f.table.Delete(fec) }

// Lookup finds the first NHLFE for a destination via longest-prefix match.
func (f *FTN) Lookup(ip addr.IPv4) (NHLFE, bool) {
	es, ok := f.table.Lookup(ip)
	if !ok || len(es) == 0 {
		return NHLFE{}, false
	}
	return es[0], true
}

// LookupAll returns every equal-cost entry for a destination, in the
// order LookupHashed indexes them.
func (f *FTN) LookupAll(ip addr.IPv4) ([]NHLFE, bool) {
	es, ok := f.table.Lookup(ip)
	return es, ok && len(es) > 0
}

// LookupHashed picks among equal-cost entries by flow hash.
func (f *FTN) LookupHashed(ip addr.IPv4, hash uint32) (NHLFE, bool) {
	es, ok := f.table.Lookup(ip)
	if !ok || len(es) == 0 {
		return NHLFE{}, false
	}
	return es[int(hash)%len(es)], true
}

// Size returns the number of FEC bindings.
func (f *FTN) Size() int { return f.table.Len() }
