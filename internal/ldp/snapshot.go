package ldp

import (
	"cmp"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

// speakerState walks one speaker's local and neighbor-learned bindings.
func speakerState(c *snapshot.Codec, sp *Speaker) {
	snapshot.Map(c, &sp.local, addr.ComparePrefix, addr.PrefixMin+1, addr.PrefixState, snapshot.Uint[packet.Label])
	snapshot.Map(c, &sp.fromNeighbor, addr.ComparePrefix, addr.PrefixMin+1, addr.PrefixState,
		func(c *snapshot.Codec, byN *map[topo.NodeID]packet.Label) {
			snapshot.Map(c, byN, cmp.Compare[topo.NodeID], 2, snapshot.Int[topo.NodeID], snapshot.Uint[packet.Label])
		})
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
	snapshot.Map(c, &p.sessions, cmp.Compare[topo.NodeID], 2, snapshot.Int[topo.NodeID], snapshot.Int[SessState])
	// A speaker writes its node and two binding counts at least.
	snapshot.Overlay(c, p.Speakers, cmp.Compare[topo.NodeID], 3, "LDP speaker", snapshot.Int[topo.NodeID], speakerState)
}
