package ldp

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"mplsvpn/internal/ospf"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

// TestLDPStateRoundTrips: a protocol restored from Protocol.State, on
// speakers whose ranks are not their node IDs, holds the sessions and
// bindings it was saved with and writes the same bytes again. The case a
// slice gets wrong by itself: a stub whose only session went down has
// forgotten every binding it had learned, and keeps each of those FECs as a
// present, empty row — the rows must be written, and restored, as just that.
func TestLDPStateRoundTrips(t *testing.T) {
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
		in.AppendChangedDests(nil)
	}
	p := NewOver(g, igp, members)
	p.Converge()

	check := func(what string) {
		t.Helper()
		var w snapshot.Writer
		p.State(snapshot.Saver(&w))
		fresh := NewOver(g, igp, members)
		if err := snapshot.Load(snapshot.NewReader(w.Data()), fresh.State); err != nil {
			t.Fatalf("%s: restore: %v", what, err)
		}
		if !reflect.DeepEqual(fresh.sessions, p.sessions) {
			t.Fatalf("%s: restored sessions %v, saved %v", what, fresh.sessions, p.sessions)
		}
		for i, sp := range p.Speakers {
			got := fresh.Speakers[i]
			if !reflect.DeepEqual(got.local, sp.local) || !reflect.DeepEqual(got.fromNeighbor, sp.fromNeighbor) {
				t.Fatalf("%s: the restored speaker at node %d holds other bindings", what, sp.Node)
			}
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
		changed[in.Node] = in.AppendChangedDests(nil)
	}
	p.ApplyIGPDelta([][2]topo.NodeID{{40, stub}}, changed)
	p.MarkSession(stub, SessionDownState)
	if present, bindings := entries(p.Speaker(stub)); before == 0 || present != before || bindings != 0 {
		t.Fatalf("cut-off stub holds %d FEC entries with %d bindings; it held %d entries, and should hold them empty", present, bindings, before)
	}
	check("stub cut off")
}
