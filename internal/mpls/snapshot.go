package mpls

import (
	"math"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/snapshot"
)

// NHLFEMin is the fewest bytes NHLFEState writes: five varints.
const NHLFEMin = 5

// NHLFEState walks one forwarding entry, bypass state included.
func NHLFEState(c *snapshot.Codec, e *NHLFE) {
	snapshot.Uint(c, &e.Op)
	snapshot.Uint(c, &e.OutLabel)
	snapshot.Int(c, &e.OutLink)
	snapshot.Uint(c, &e.BypassLabel)
	snapshot.Int(c, &e.BypassLink)
}

// save writes s's set: the count, then each member.
func (a *arena) save(c *snapshot.Codec, s span) {
	es := a.members(s)
	c.Len(len(es), NHLFEMin)
	for i := range es {
		NHLFEState(c, &es[i])
	}
}

// load reads a set written by save onto the arena's tail and returns its
// span. The count has been checked against the bytes that remain, so the
// input cannot size the append beyond them.
func (a *arena) load(c *snapshot.Codec) span {
	n := c.Len(0, NHLFEMin)
	if n > math.MaxUint16 {
		c.Corrupt("action set of %d members", n)
		return span{}
	}
	room := max(n, 1)
	off := len(a.es)
	a.es = append(a.es, make([]NHLFE, room)...)
	for i := off; i < off+n && c.Err() == nil; i++ {
		NHLFEState(c, &a.es[i])
	}
	return span{off: uint32(off), n: uint16(n), room: uint16(room)}
}

// State walks the allocator position, so restored routers hand out the same
// labels the uninterrupted run would.
func (a *Allocator) State(c *snapshot.Codec) { snapshot.Uint(c, &a.next) }

// State walks the forwarding counters and the ILM: the count of bound
// labels, then each (label, actions) ascending.
// A load appends every set to one new arena, and checks a label against
// the label space before the slice grows to hold it, so the input cannot
// size the allocation.
func (f *LFIB) State(c *snapshot.Codec) {
	snapshot.Int(c, &f.Swapped)
	snapshot.Int(c, &f.Pushed)
	snapshot.Int(c, &f.Popped)
	n := c.Len(f.bound, 2)
	if !c.Loading() {
		for in, s := range f.ilm {
			if s.bound() {
				c.U64(uint64(in))
				f.sets.save(c, s)
			}
		}
		return
	}
	f.ilm, f.bound, f.sets = nil, 0, arena{}
	f.sets.grow(n)
	for ; n > 0 && c.Err() == nil; n-- {
		in := c.U64(0)
		s := f.sets.load(c)
		if in > uint64(packet.MaxLabel) {
			c.Corrupt("ILM label %d above the 20-bit label space", in)
		}
		if c.Err() != nil {
			return
		}
		cell := f.cell(packet.Label(in))
		if cell.bound() {
			f.sets.holes += int(cell.room)
		} else {
			f.bound++
		}
		*cell = s
	}
}

// State walks the FEC bindings in the trie's deterministic walk order; an
// FTN with no trie writes an empty one. A load appends every set to one new
// arena, and leaves no trie when it found no binding.
func (f *FTN) State(c *snapshot.Codec) {
	const min = addr.PrefixMin + 1
	if !c.Loading() && f.table == nil {
		c.Len(0, min)
		return
	}
	if c.Loading() {
		f.sets = arena{}
	}
	addr.TableState(c, &f.table, min, func(c *snapshot.Codec, _ addr.Prefix, s *span) {
		if c.Loading() {
			*s = f.sets.load(c)
		} else {
			f.sets.save(c, *s)
		}
	})
	if c.Loading() && f.table.Len() == 0 {
		f.table = nil
	}
}
