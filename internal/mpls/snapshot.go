package mpls

import (
	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/snapshot"
)

// NHLFEMin is the fewest bytes NHLFEState writes: five varints.
const NHLFEMin = 5

// NHLFEState walks one forwarding entry, bypass state included.
func NHLFEState(c *snapshot.Codec, e *NHLFE) {
	snapshot.Int(c, &e.Op)
	snapshot.Uint(c, &e.OutLabel)
	snapshot.Int(c, &e.OutLink)
	snapshot.Uint(c, &e.BypassLabel)
	snapshot.Int(c, &e.BypassLink)
}

func nhlfesState(c *snapshot.Codec, es *[]NHLFE) { snapshot.Slice(c, es, NHLFEMin, NHLFEState) }

// State walks the allocator position, so restored routers hand out the same
// labels the uninterrupted run would.
func (a *Allocator) State(c *snapshot.Codec) { snapshot.Uint(c, &a.next) }

// State walks the forwarding counters and the ILM as a map would be
// walked: the count of bound labels, then each (label, actions) ascending.
// A loaded label is checked against the label space before the slice grows
// to hold it, so the input cannot size the allocation.
func (f *LFIB) State(c *snapshot.Codec) {
	snapshot.Int(c, &f.Swapped)
	snapshot.Int(c, &f.Pushed)
	snapshot.Int(c, &f.Popped)
	n := c.Len(f.bound, 2)
	if !c.Loading() {
		for in, es := range f.ilm {
			if es != nil {
				c.U64(uint64(in))
				nhlfesState(c, &es)
			}
		}
		return
	}
	f.ilm, f.bound = nil, 0
	for ; n > 0 && c.Err() == nil; n-- {
		in := c.U64(0)
		var es []NHLFE
		nhlfesState(c, &es)
		if in > uint64(packet.MaxLabel) {
			c.Corrupt("ILM label %d above the 20-bit label space", in)
		}
		if c.Err() == nil {
			f.SetILM(packet.Label(in), es)
		}
	}
}

// State walks the FEC bindings in the trie's deterministic walk order.
func (f *FTN) State(c *snapshot.Codec) {
	addr.TableState(c, &f.table, addr.PrefixMin+1, func(c *snapshot.Codec, _ addr.Prefix, es *[]NHLFE) { nhlfesState(c, es) })
}
