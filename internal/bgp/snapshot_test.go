package bgp

import (
	"errors"
	"fmt"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

// clusteredMesh builds two clusters whose clients carry the highest speaker
// IDs, so the checkpoint's last speaker record — and with it the section's
// last bytes — is an Adj-RIB-In full of reflected routes.
func clusteredMesh() *Mesh {
	m := NewMesh()
	for _, n := range []topo.NodeID{1, 2, 3, 4, 100, 101, 102, 103} {
		m.AddSpeaker(n, Loopback(n))
	}
	m.UseClusters([]Cluster{
		{ID: 10, RRs: []topo.NodeID{1, 2}, Clients: []topo.NodeID{100, 101}},
		{ID: 20, RRs: []topo.NodeID{3, 4}, Clients: []topo.NodeID{102, 103}},
	})
	rt := vpnRT(1)
	for _, pe := range []topo.NodeID{100, 101, 102, 103} {
		s, _ := m.Speaker(pe)
		s.Filter = func(r *VPNRoute) bool { return r.HasRT(rt) }
		m.SetRTInterest(pe, []addr.RouteTarget{rt})
		s.Originate(&VPNRoute{
			Prefix:    addr.VPNPrefix{RD: vpnRD(1), Prefix: addr.MustParsePrefix(fmt.Sprintf("10.1.%d.0/24", pe))},
			NextHop:   Loopback(pe),
			Label:     packet.Label(1000 + pe),
			RTs:       []addr.RouteTarget{rt},
			LocalPref: 100,
			OriginPE:  pe,
		})
	}
	return m
}

// TestClusteredSnapshotRoundTrip: a clustered mesh whose highest-numbered
// speaker holds reflected routes must checkpoint and restore. loadRoute used
// to validate the CLUSTER_LIST count as if each ID took eight bytes, though
// the codec writes a varint, and refused any section ending in such a route
// with "element count exceeds input".
func TestClusteredSnapshotRoundTrip(t *testing.T) {
	m := clusteredMesh()
	m.Converge()
	last, _ := m.Speaker(103)
	p := addr.VPNPrefix{RD: vpnRD(1), Prefix: addr.MustParsePrefix("10.1.100.0/24")}
	if r, ok := last.Best(p); !ok || len(r.ClusterList) == 0 {
		t.Fatalf("speaker 103 holds no reflected route for %v: the regression would be vacuous", p)
	}
	var w snapshot.Writer
	m.SaveState(&w)

	m2 := clusteredMesh()
	if err := m2.LoadState(snapshot.NewReader(w.Data())); err != nil {
		t.Fatalf("LoadState of a clustered mesh: %v", err)
	}
	var w2 snapshot.Writer
	m2.SaveState(&w2)
	if string(w2.Data()) != string(w.Data()) {
		t.Fatalf("save(load(s)) != s (%d vs %d bytes)", len(w2.Data()), len(w.Data()))
	}
	for _, id := range []topo.NodeID{100, 101, 102, 103} {
		a, _ := m.Speaker(id)
		b, _ := m2.Speaker(id)
		for _, origin := range []topo.NodeID{100, 101, 102, 103} {
			q := addr.VPNPrefix{RD: vpnRD(1), Prefix: addr.MustParsePrefix(fmt.Sprintf("10.1.%d.0/24", origin))}
			ra, oka := a.Best(q)
			rb, okb := b.Best(q)
			if oka != okb || (oka && (ra.NextHop != rb.NextHop || ra.Label != rb.Label || fmt.Sprint(ra.ClusterList) != fmt.Sprint(rb.ClusterList))) {
				t.Errorf("speaker %d best path for %v differs after restore: %+v vs %+v", id, q, ra, rb)
			}
		}
	}

	// A count the input cannot hold is still refused, with a typed error.
	trunc := w.Data()[:len(w.Data())-1]
	if err := clusteredMesh().LoadState(snapshot.NewReader(trunc)); !errors.Is(err, snapshot.ErrTruncated) && !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("truncated section: err = %v, want a typed error", err)
	}
}
