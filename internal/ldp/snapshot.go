package ldp

import (
	"mplsvpn/internal/packet"
	"mplsvpn/internal/snapshot"
)

// rowState walks the bindings learned for one FEC: a count, then
// (neighbour's rank, label) ascending. A rank past the domain, or out of
// order, is one no saver writes.
func (p *Protocol) rowState(c *snapshot.Codec, row *[]binding) {
	n := c.Len(len(*row), 2)
	if c.Loading() {
		*row = make([]binding, n) // not nil, even empty: learned once, since forgotten
	}
	prev := int32(-1)
	for i := range *row {
		b := &(*row)[i]
		snapshot.Int(c, &b.from)
		snapshot.Uint(c, &b.label)
		if b.from <= prev || int(b.from) >= len(p.Speakers) {
			c.Corrupt("label binding from rank %d after %d, in a domain of %d", b.from, prev, len(p.Speakers))
		}
		prev = b.from
	}
}

// speakerState walks one speaker's local and neighbor-learned bindings, both
// indexed by the FEC owner's rank.
func (p *Protocol) speakerState(c *snapshot.Codec, sp *Speaker) {
	if c.Loading() {
		for f := range sp.local {
			sp.local[f], sp.fromNeighbor[f] = noLabel, nil
		}
		sp.block = nil // a load gives every row its own slice
	}
	snapshot.Dense(c, sp.local, func(l *packet.Label) bool { return *l != noLabel }, 2,
		func(c *snapshot.Codec, l *packet.Label) {
			snapshot.Uint(c, l)
			if *l > packet.MaxLabel {
				c.Corrupt("label %d above the label space", *l)
			}
		})
	snapshot.Dense(c, sp.fromNeighbor, learned, 2, p.rowState)
}

// State walks the protocol's dynamic state: the message counters, adjacency
// states, and every speaker's bindings. Speakers are scenario configuration
// and must already exist. The ILM/FTN built from the bindings live in the
// shared label tables and are walked by the mpls layer.
func (p *Protocol) State(c *snapshot.Codec) {
	snapshot.Int(c, &p.MessagesSent)
	snapshot.Int(c, &p.Rounds)
	snapshot.Int(c, &p.SessionFlaps)
	snapshot.Int(c, &p.StaleBindings)
	if c.Loading() {
		clear(p.sessions)
	}
	snapshot.Dense(c, p.sessions, func(st *SessState) bool { return *st != SessionUp }, 2, snapshot.Int[SessState])
	// A speaker writes two binding counts at least.
	if c.FixedLen(len(p.Speakers), 2, "LDP speakers") {
		for _, sp := range p.Speakers {
			p.speakerState(c, sp)
		}
	}
}
