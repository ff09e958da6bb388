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
	"math"
	"slices"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/topo"
)

// Op is the label operation an NHLFE applies.
type Op uint8

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

// NHLFE is a next-hop label forwarding entry: 32 bytes and no pointer, its
// 8-byte fields first.
type NHLFE struct {
	OutLink  topo.LinkID  // egress interface; -1 = local delivery
	OutLabel packet.Label // meaningful for push/swap; ImplicitNull requests PHP

	// Fast-reroute state (RFC 4090 facility backup): when BypassLabel is
	// non-zero the entry is detoured — after the normal swap/pop the
	// bypass label is pushed on top and the packet leaves via BypassLink
	// toward the merge point instead of the (failed) OutLink.
	BypassLabel packet.Label
	BypassLink  topo.LinkID

	Op Op
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

// span locates one action set in its table's arena: n members from off,
// with room for as many as room before the next set begins. A bound set
// always has room for one, so the zero span is "unbound".
type span struct {
	off     uint32
	n, room uint16
}

// bound reports whether the span holds a set, empty or not.
func (s span) bound() bool { return s.room != 0 }

// arena holds the action sets of one table end to end, so that a set is an
// 8-byte span and not a slice of its own: the table holds no pointer for
// the collector to scan. A set that outgrows its room moves to the tail and
// leaves its room a hole; once the holes exceed half the array, the table
// compacts it. Each table has its own arena, so a set handed out by one
// table stays good while another changes.
type arena struct {
	es    []NHLFE
	holes int // members of es no span covers
}

// members returns s's set, capped at its length.
func (a *arena) members(s span) []NHLFE {
	return a.es[s.off : s.off+uint32(s.n) : s.off+uint32(s.n)]
}

// grow makes room for n more members at the tail.
func (a *arena) grow(n int) { a.es = slices.Grow(a.es, n) }

// resize makes *s a set of n members, keeping the first min(n, s.n)
// members it had: in place when its room allows, otherwise at the tail,
// with the old room left a hole. It reports whether the table must now
// compact.
func (a *arena) resize(s *span, n int) bool {
	if n > math.MaxUint16 {
		panic("mpls: action set larger than 65535 members")
	}
	if n <= int(s.room) {
		s.n = uint16(n)
		return false
	}
	off := len(a.es)
	a.es = append(a.es, make([]NHLFE, n)...)
	copy(a.es[off:], a.members(*s))
	a.holes += int(s.room)
	*s = span{off: uint32(off), n: uint16(n), room: uint16(n)}
	return a.holes > len(a.es)/2
}

// release turns s's room into a hole and reports whether the table must now
// compact.
func (a *arena) release(s span) bool {
	a.holes += int(s.room)
	return a.holes > len(a.es)/2
}

// compact copies every live set, each with its room, to the front of a new
// array in the order each visits their spans, and rewrites the spans.
func (a *arena) compact(each func(visit func(*span))) {
	es := make([]NHLFE, 0, len(a.es)-a.holes)
	each(func(s *span) {
		off := len(es)
		es = append(es, a.es[s.off:s.off+uint32(s.room)]...)
		s.off = uint32(off)
	})
	a.es, a.holes = es, 0
}

// insertAt makes room at position i of es, whose last member is spare, and
// puts e there.
func insertAt(es []NHLFE, i int, e NHLFE) {
	copy(es[i+1:], es[i:len(es)-1])
	es[i] = e
}

// position returns where a member on link goes in es, which ascends by
// OutLink, and whether es already holds a member on it.
func position(es []NHLFE, link topo.LinkID) (int, bool) {
	i := 0
	for i < len(es) && es[i].OutLink < link {
		i++
	}
	return i, i < len(es) && es[i].OutLink == link
}

// LFIB is one router's label forwarding information base: the ILM for
// labelled traffic plus an FTN per context (the global table and one per
// VRF) for unlabelled traffic entering an LSP.
//
// The ILM is a slice indexed by the incoming label — "the label is an
// index", literally: a router allocates its labels densely from 16 and
// never reuses one, so the slice is as long as its allocator has counted
// and a transit lookup is one bounds check. Each element is a span of the
// LFIB's arena; the zero span is an unbound label, and a bound one is never
// zero, even when its action set is empty.
type LFIB struct {
	ilm   []span
	sets  arena
	bound int // bound elements of ilm

	// Counters for the forwarding experiments.
	Swapped int
	Pushed  int
	Popped  int
}

// NewLFIB returns an empty LFIB.
func NewLFIB() *LFIB { return &LFIB{} }

// BindILM installs the action for an incoming label, replacing any
// existing set.
func (f *LFIB) BindILM(in packet.Label, e NHLFE) { f.ResetILM(in, 1)[0] = e }

// AddILM adds an equal-cost action for an incoming label (ECMP), keeping
// the set in ascending OutLink order — the IGP's NextHops order, so the
// member a flow hashes to does not depend on the order mappings arrived in.
// Duplicate out-links are ignored.
func (f *LFIB) AddILM(in packet.Label, e NHLFE) {
	es := f.actions(in)
	i, dup := position(es, e.OutLink)
	if !dup {
		insertAt(f.ResetILM(in, len(es)+1), i, e)
	}
}

// Grow makes room for n more actions bound by AddILM, so that binding them
// does not grow the arena step by step.
func (f *LFIB) Grow(n int) { f.sets.grow(n) }

// SetILM replaces the whole action set for an incoming label with a copy
// of es.
func (f *LFIB) SetILM(in packet.Label, es []NHLFE) { copy(f.ResetILM(in, len(es)), es) }

// cell returns the ILM element for an incoming label, growing the slice to
// hold it.
func (f *LFIB) cell(in packet.Label) *span {
	if in > packet.MaxLabel {
		panic("mpls: label outside the 20-bit space")
	}
	if int(in) >= len(f.ilm) {
		f.ilm = append(f.ilm, make([]span, int(in)+1-len(f.ilm))...)
	}
	return &f.ilm[in]
}

// actions returns the action set bound to an incoming label, nil if none.
func (f *LFIB) actions(in packet.Label) []NHLFE {
	if int(in) >= len(f.ilm) || !f.ilm[in].bound() {
		return nil
	}
	return f.sets.members(f.ilm[in])
}

// ResetILM rebinds an incoming label to n actions and returns them for the
// caller to overwrite, every one: the set already bound, resized, when its
// room holds n, a set moved to the arena's tail otherwise. A control plane
// re-deriving an entry whose next-hop count did not grow past what it once
// was allocates nothing. The set is good until the LFIB next changes.
func (f *LFIB) ResetILM(in packet.Label, n int) []NHLFE {
	s := f.cell(in)
	if !s.bound() {
		f.bound++
	}
	if f.sets.resize(s, max(n, 1)) {
		f.compact()
	}
	s = &f.ilm[in]
	s.n = uint16(n)
	return f.sets.members(*s)
}

// compact rewrites the arena without its holes.
func (f *LFIB) compact() {
	f.sets.compact(func(visit func(*span)) {
		for i := range f.ilm {
			if f.ilm[i].bound() {
				visit(&f.ilm[i])
			}
		}
	})
}

// UnbindILM removes the action for an incoming label (LSP teardown).
func (f *LFIB) UnbindILM(in packet.Label) {
	if int(in) >= len(f.ilm) || !f.ilm[in].bound() {
		return
	}
	s := f.ilm[in]
	f.ilm[in] = span{}
	f.bound--
	if f.sets.release(s) {
		f.compact()
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
	for _, s := range f.ilm {
		if !s.bound() {
			continue
		}
		es := f.sets.members(s)
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
// Each FEC may carry several equal-cost entries (ECMP): its trie value is a
// span of the FTN's own arena, as an ILM element is of the LFIB's. The trie
// is made on the first binding: a CE's FTN, which never takes one, holds
// none.
type FTN struct {
	table *addr.Table[span] // nil until the first binding
	sets  arena
}

// NewFTN returns an empty FTN.
func NewFTN() *FTN { return &FTN{} }

// trie returns the FEC trie, making it on first use.
func (f *FTN) trie() *addr.Table[span] {
	if f.table == nil {
		f.table = addr.NewTable[span]()
	}
	return f.table
}

// Grow makes room for n more FEC bindings made through AddBind, so that
// making them grows neither the table nor the arena step by step.
func (f *FTN) Grow(n int) {
	f.trie().Grow(n)
	f.sets.grow(n)
}

// Bind associates a FEC (prefix) with an NHLFE, replacing any existing set.
func (f *FTN) Bind(fec addr.Prefix, e NHLFE) { f.ResetSet(fec, 1)[0] = e }

// AddBind adds an equal-cost entry for a FEC (ECMP) in ascending OutLink
// order, like AddILM; duplicate out-links are ignored. It is one descent of
// the table.
func (f *FTN) AddBind(fec addr.Prefix, e NHLFE) {
	s, _ := f.trie().Upsert(fec)
	es := f.members(*s)
	i, dup := position(es, e.OutLink)
	if !dup {
		insertAt(f.reset(s, len(es)+1), i, e)
	}
}

// BindWithRoom binds fec to the one entry e, replacing any existing set, in
// a set with room for n entries, so that the n-1 equal-cost entries AddBind
// adds after it go in place. It is one descent of the table.
func (f *FTN) BindWithRoom(fec addr.Prefix, e NHLFE, n int) {
	s, _ := f.trie().Upsert(fec)
	f.reset(s, n)
	f.reset(s, 1)[0] = e
}

// ResetSet is ResetILM for a FEC: it binds fec to n entries, the set
// already bound when its room holds n, and returns them for the caller to
// overwrite, every one. The set is good until the FTN next changes.
func (f *FTN) ResetSet(fec addr.Prefix, n int) []NHLFE {
	s, _ := f.trie().Upsert(fec)
	return f.reset(s, n)
}

// reset resizes the set in cell s to n members and returns them.
func (f *FTN) reset(s *span, n int) []NHLFE {
	if f.sets.resize(s, max(n, 1)) {
		f.compact()
	}
	s.n = uint16(n)
	return f.sets.members(*s)
}

// compact rewrites the arena without its holes.
func (f *FTN) compact() {
	f.sets.compact(func(visit func(*span)) { f.table.Values(visit) })
}

// members returns the set a trie value locates, nil for the zero span.
func (f *FTN) members(s span) []NHLFE {
	if !s.bound() {
		return nil
	}
	return f.sets.members(s)
}

// Unbind removes a FEC binding (inter-AS stitch teardown). Unknown FECs
// are a no-op.
func (f *FTN) Unbind(fec addr.Prefix) {
	if f.table == nil {
		return
	}
	s, ok := f.table.Exact(fec)
	if !ok {
		return
	}
	f.table.Delete(fec)
	if f.sets.release(s) {
		f.compact()
	}
}

// Lookup finds the first NHLFE for a destination via longest-prefix match.
func (f *FTN) Lookup(ip addr.IPv4) (NHLFE, bool) {
	return f.LookupHashed(ip, 0)
}

// LookupAll returns every equal-cost entry for a destination, in the
// order LookupHashed indexes them.
func (f *FTN) LookupAll(ip addr.IPv4) ([]NHLFE, bool) {
	es := f.members(f.match(ip))
	return es, len(es) > 0
}

// LookupHashed picks among equal-cost entries by flow hash.
func (f *FTN) LookupHashed(ip addr.IPv4, hash uint32) (NHLFE, bool) {
	s := f.match(ip)
	if s.n == 0 {
		return NHLFE{}, false
	}
	return f.sets.es[s.off+uint32(int(hash)%int(s.n))], true
}

// match returns the span of the longest FEC covering ip, the zero span if
// none does.
func (f *FTN) match(ip addr.IPv4) span {
	if f.table == nil {
		return span{}
	}
	s, _ := f.table.Lookup(ip)
	return s
}

// Size returns the number of FEC bindings.
func (f *FTN) Size() int {
	if f.table == nil {
		return 0
	}
	return f.table.Len()
}
