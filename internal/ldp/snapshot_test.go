package ldp

import (
	"bytes"
	"cmp"
	"fmt"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/ospf"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

// mapSpeaker is a speaker's bindings as they were held before the slices:
// by FEC prefix, and by neighbour under that. The state walk in mapEncoding
// is the one this package had then.
type mapSpeaker struct {
	local        map[addr.Prefix]packet.Label
	fromNeighbor map[addr.Prefix]map[topo.NodeID]packet.Label
}

func mapEncoding(p *Protocol) []byte {
	sessions := map[topo.NodeID]SessState{}
	for r, st := range p.sessions {
		if st != SessionUp {
			sessions[p.idx.Nodes[r]] = st
		}
	}
	speakers := map[topo.NodeID]*mapSpeaker{}
	for _, sp := range p.Speakers {
		ms := &mapSpeaker{map[addr.Prefix]packet.Label{}, map[addr.Prefix]map[topo.NodeID]packet.Label{}}
		for f, l := range sp.local {
			if l != noLabel {
				ms.local[p.fec(f)] = l
			}
		}
		for f, row := range sp.fromNeighbor {
			if row == nil {
				continue
			}
			byN := map[topo.NodeID]packet.Label{}
			for _, b := range row {
				byN[p.idx.Nodes[b.from]] = b.label
			}
			ms.fromNeighbor[p.fec(f)] = byN
		}
		speakers[sp.Node] = ms
	}
	var w snapshot.Writer
	c := snapshot.Saver(&w)
	snapshot.Int(c, &p.MessagesSent)
	snapshot.Int(c, &p.Rounds)
	snapshot.Int(c, &p.SessionFlaps)
	snapshot.Int(c, &p.StaleBindings)
	snapshot.Map(c, &sessions, cmp.Compare[topo.NodeID], 2, snapshot.Int[topo.NodeID], snapshot.Int[SessState])
	snapshot.Overlay(c, speakers, cmp.Compare[topo.NodeID], 3, "LDP speaker", snapshot.Int[topo.NodeID],
		func(c *snapshot.Codec, sp *mapSpeaker) {
			snapshot.Map(c, &sp.local, addr.ComparePrefix, addr.PrefixMin+1, addr.PrefixState, snapshot.Uint[packet.Label])
			snapshot.Map(c, &sp.fromNeighbor, addr.ComparePrefix, addr.PrefixMin+1, addr.PrefixState,
				func(c *snapshot.Codec, byN *map[topo.NodeID]packet.Label) {
					snapshot.Map(c, byN, cmp.Compare[topo.NodeID], 2, snapshot.Int[topo.NodeID], snapshot.Uint[packet.Label])
				})
		})
	return w.Data()
}

// TestLDPStateIsTheMapEncoding: Protocol.State writes, byte for byte, what
// snapshot.Map and Overlay wrote over the maps the slices replaced, on
// speakers whose ranks are not their node IDs. The case a slice gets wrong
// by itself: a stub whose only session went down has forgotten every binding
// it had learned, and the map kept each of those FECs as a present, empty
// entry — the rows must be written, and restored, as just that.
func TestLDPStateIsTheMapEncoding(t *testing.T) {
	g := topo.New()
	for i := 0; i < 50; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	ring := []topo.NodeID{3, 17, 18, 40}
	stub := topo.NodeID(41)
	members := append([]topo.NodeID{stub}, ring...)
	for i, n := range ring {
		g.AddDuplexLink(n, ring[(i+1)%len(ring)], 1e9, sim.Millisecond, 1)
		g.AddDuplexLink(n, n+1, 1e9, sim.Millisecond, 1) // a customer stub; 41 is 40's, and a speaker
	}
	igp := ospf.NewDomainOver(g, members)
	igp.Converge()
	for _, in := range igp.Instances {
		in.TakeChangedDests()
	}
	p := NewOver(g, igp, members)
	p.Converge()

	check := func(what string) {
		t.Helper()
		var w snapshot.Writer
		p.State(snapshot.Saver(&w))
		if want := mapEncoding(p); !bytes.Equal(w.Data(), want) {
			t.Fatalf("%s: Protocol.State wrote %d bytes that are not the map encoding's %d", what, w.Len(), len(want))
		}
		fresh := NewOver(g, igp, members)
		if err := snapshot.Load(snapshot.NewReader(w.Data()), fresh.State); err != nil {
			t.Fatalf("%s: restore: %v", what, err)
		}
		var again snapshot.Writer
		fresh.State(snapshot.Saver(&again))
		if !bytes.Equal(again.Data(), w.Data()) {
			t.Fatalf("%s: a restored protocol writes different bytes", what)
		}
	}
	check("converged")

	entries := func(sp *Speaker) (present, bindings int) {
		for _, row := range sp.fromNeighbor {
			if row != nil {
				present++
			}
			bindings += len(row)
		}
		return present, bindings
	}
	before, _ := entries(p.Speaker(stub))
	g.SetLinkDown(40, stub, true)
	igp.NotifyLinkChange(40, stub)
	changed := map[topo.NodeID][]topo.NodeID{}
	for _, in := range igp.Instances {
		changed[in.Node] = in.TakeChangedDests()
	}
	p.ApplyIGPDelta([][2]topo.NodeID{{40, stub}}, changed)
	p.MarkSession(stub, SessionDownState)
	if present, bindings := entries(p.Speaker(stub)); before == 0 || present != before || bindings != 0 {
		t.Fatalf("cut-off stub holds %d FEC entries with %d bindings; it held %d entries, and should hold them empty", present, bindings, before)
	}
	check("stub cut off")
}
