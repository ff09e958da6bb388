package mpls

import (
	"cmp"

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

// State walks the forwarding counters and the ILM, ascending by incoming
// label.
func (f *LFIB) State(c *snapshot.Codec) {
	snapshot.Int(c, &f.Swapped)
	snapshot.Int(c, &f.Pushed)
	snapshot.Int(c, &f.Popped)
	snapshot.Map(c, &f.ilm, cmp.Compare[packet.Label], 2, snapshot.Uint[packet.Label], nhlfesState)
}

// State walks the FEC bindings in the trie's deterministic walk order.
func (f *FTN) State(c *snapshot.Codec) {
	addr.TableState(c, &f.table, addr.PrefixMin+1, func(c *snapshot.Codec, _ addr.Prefix, es *[]NHLFE) { nhlfesState(c, es) })
}
