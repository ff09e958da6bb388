package ldp

import (
	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/snapshot"
)

// fecKey is the snapshot.Dense key of a table indexed by FEC: the loopback
// prefix on the wire, as the map the table replaced was keyed.
func (p *Protocol) fecKey(c *snapshot.Codec, f int) int {
	var fec addr.Prefix
	if f >= 0 {
		fec = p.fec(f)
	}
	addr.PrefixState(c, &fec)
	return p.fecRank(fec)
}

// rowState walks the bindings learned for one FEC as the map of them was
// walked: a count, then (neighbour, label) ascending. A neighbour that runs
// no speaker, or out of order, is one no saver writes.
func (p *Protocol) rowState(c *snapshot.Codec, row *[]binding) {
	n := c.Len(len(*row), 2)
	if c.Loading() {
		*row = make([]binding, n) // not nil, even empty: learned once, since forgotten
	}
	prev := -1
	for i := range *row {
		b := &(*row)[i]
		from := p.idx.Key(c, int(b.from))
		snapshot.Uint(c, &b.label)
		if from <= prev {
			c.Corrupt("label binding from a node that runs no speaker, or out of neighbour order")
		}
		b.from, prev = int32(from), from
	}
}

// speakerState walks one speaker's local and neighbor-learned bindings. Both
// are indexed by the FEC owner's rank, so a FEC that is no speaker's
// loopback is refused by its key before anything is stored.
func (p *Protocol) speakerState(c *snapshot.Codec, sp *Speaker) {
	if c.Loading() {
		for f := range sp.local {
			sp.local[f], sp.fromNeighbor[f] = noLabel, nil
		}
		sp.block = nil // a load gives every row its own slice
	}
	snapshot.Dense(c, sp.local, func(l *packet.Label) bool { return *l != noLabel }, addr.PrefixMin+1, p.fecKey,
		func(c *snapshot.Codec, l *packet.Label) {
			snapshot.Uint(c, l)
			if *l > packet.MaxLabel {
				c.Corrupt("label %d above the label space", *l)
			}
		})
	snapshot.Dense(c, sp.fromNeighbor, learned, addr.PrefixMin+1, p.fecKey, p.rowState)
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
	snapshot.Dense(c, p.sessions, func(st *SessState) bool { return *st != SessionUp }, 2, p.idx.Key, snapshot.Int[SessState])
	// A speaker writes its node and two binding counts at least.
	snapshot.Dense(c, p.Speakers, func(**Speaker) bool { return true }, 3, p.idx.Key,
		func(c *snapshot.Codec, sp **Speaker) { p.speakerState(c, *sp) })
}
