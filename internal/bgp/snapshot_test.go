package bgp

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
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

// threeClusterMesh is the pinned mesh: three clusters of two reflectors and
// two clients, every client exporting one route with two route targets.
func threeClusterMesh() *Mesh {
	m := NewMesh()
	var clusters []Cluster
	for c := topo.NodeID(0); c < 3; c++ {
		rrs := []topo.NodeID{1 + 2*c, 2 + 2*c}
		clients := []topo.NodeID{100 + 2*c, 101 + 2*c}
		for _, n := range append(append([]topo.NodeID(nil), rrs...), clients...) {
			m.AddSpeaker(n, Loopback(n))
		}
		clusters = append(clusters, Cluster{ID: uint32(10 * (c + 1)), RRs: rrs, Clients: clients})
	}
	m.UseClusters(clusters)
	for _, c := range clusters {
		for i, pe := range c.Clients {
			s, _ := m.Speaker(pe)
			s.Originate(&VPNRoute{
				Prefix:    addr.VPNPrefix{RD: vpnRD(int(c.ID)), Prefix: addr.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", c.ID, pe))},
				NextHop:   Loopback(pe),
				Label:     packet.Label(1000 + pe),
				RTs:       []addr.RouteTarget{vpnRT(1), vpnRT(2 + i)},
				LocalPref: 100,
				OriginPE:  pe,
			})
		}
	}
	return m
}

// TestCheckpointBytesUnchanged pins the "bgp" section's wire format on a
// three-cluster mesh: length and CRC-32C recorded at the commit that moved
// the section to a route table plus indices (snapshot.Version 3). See the
// chaos package's test of the same name for the whole-container pins.
func TestCheckpointBytesUnchanged(t *testing.T) {
	m := threeClusterMesh()
	m.Converge()
	var w snapshot.Writer
	m.SaveState(&w)
	const wantLen, wantCRC = 583, 0xe7bb858a
	if got := crc32.Checksum(w.Data(), crc32.MakeTable(crc32.Castagnoli)); w.Len() != wantLen || got != wantCRC {
		t.Errorf("3-cluster mesh: %d bytes, CRC-32C %#08x; the recorded format is %d bytes, %#08x", w.Len(), got, wantLen, wantCRC)
	}
}

// distinctRoutes counts the VPNRoute objects reachable from a mesh.
func distinctRoutes(m *Mesh) int {
	seen := map[*VPNRoute]bool{}
	for _, s := range m.speakers {
		for _, rs := range [][]*VPNRoute{s.exports, s.rib.paths, s.rib.best} {
			for _, r := range rs {
				seen[r] = true
			}
		}
	}
	return len(seen)
}

// distinctLists counts the backing arrays behind the route-target lists and
// behind the cluster lists of the routes reachable from a mesh.
func distinctLists(m *Mesh) (rts, clusters int) {
	seenRTs, seenClusters := map[*addr.RouteTarget]bool{}, map[*uint32]bool{}
	for _, s := range m.speakers {
		for _, rs := range [][]*VPNRoute{s.exports, s.rib.paths, s.rib.best} {
			for _, r := range rs {
				if len(r.RTs) > 0 {
					seenRTs[&r.RTs[0]] = true
				}
				if len(r.ClusterList) > 0 {
					seenClusters[&r.ClusterList[0]] = true
				}
			}
		}
	}
	return len(seenRTs), len(seenClusters)
}

// TestLoadStatePreservesSharing: receivers share one route object per
// announcement, and a restored mesh must too. The section used to write
// every adj-RIB-in entry by value and a load gave each its own copy, so a
// restored mesh was several times heavier than the one it was saved from.
// The same goes one level down: a stamped copy shares its original's route
// targets and its cluster's CLUSTER_LIST, and a load used to give every
// route a list of its own.
func TestLoadStatePreservesSharing(t *testing.T) {
	m := threeClusterMesh()
	m.Converge()
	// Six originals and one stamped copy of each, whoever holds them.
	if got := distinctRoutes(m); got != 12 {
		t.Fatalf("converged mesh holds %d distinct routes, want 12", got)
	}
	var w snapshot.Writer
	m.SaveState(&w)
	m2 := threeClusterMesh()
	if err := m2.LoadState(snapshot.NewReader(w.Data())); err != nil {
		t.Fatal(err)
	}
	if got, want := distinctRoutes(m2), distinctRoutes(m); got != want {
		t.Errorf("restored mesh holds %d distinct routes, the saved one %d", got, want)
	}
	// Six target lists, one per original, and three cluster lists, one per
	// cluster, in the mesh that was saved.
	rts, clusters := distinctLists(m)
	if rts != 6 || clusters != 3 {
		t.Fatalf("converged mesh holds %d route-target lists and %d cluster lists, want 6 and 3", rts, clusters)
	}
	if gotRTs, gotClusters := distinctLists(m2); gotRTs > rts || gotClusters > clusters {
		t.Errorf("restored mesh holds %d route-target lists and %d cluster lists, the saved one %d and %d",
			gotRTs, gotClusters, rts, clusters)
	}
	var w2 snapshot.Writer
	m2.SaveState(&w2)
	if !bytes.Equal(w.Data(), w2.Data()) {
		t.Errorf("save(load(s)) != s (%d vs %d bytes)", w2.Len(), w.Len())
	}
}

// TestSnapshotSmallRouteTargets: a route target encodes in two bytes when
// both halves are small, so six of them behind the section's last route take
// twelve bytes — the loader used to demand four apiece and refused the
// checkpoint its own SaveState had just written.
func TestSnapshotSmallRouteTargets(t *testing.T) {
	build := func() *Mesh {
		m := NewMesh()
		m.AddSpeaker(1, Loopback(1))
		s, _ := m.Speaker(1)
		r := &VPNRoute{
			Prefix:  addr.VPNPrefix{RD: vpnRD(1), Prefix: addr.MustParsePrefix("10.1.0.0/16")},
			NextHop: Loopback(1), Label: 16, LocalPref: 100, OriginPE: 1,
		}
		for i := uint32(0); i < 6; i++ {
			r.RTs = append(r.RTs, addr.RouteTarget{Admin: 1, Assigned: i})
		}
		s.Originate(r)
		m.Converge()
		return m
	}
	var w snapshot.Writer
	build().SaveState(&w)
	m2 := build()
	if err := m2.LoadState(snapshot.NewReader(w.Data())); err != nil {
		t.Fatalf("LoadState of a route with six small RTs: %v", err)
	}
	var w2 snapshot.Writer
	m2.SaveState(&w2)
	if !bytes.Equal(w.Data(), w2.Data()) {
		t.Fatalf("save(load(s)) != s (%d vs %d bytes)", w2.Len(), w.Len())
	}
}

// TestRestoredMeshHoldsNoMoreThanSaved: at the repository benchmark's
// vpnv4_100k shape, the heap a mesh holds after LoadState is within 2 % of
// what the converged mesh it was saved from held (it used to be 5 % more:
// one route-target list and one cluster list per route, where the converged
// mesh shares them between an original and its stamped copies).
func TestRestoredMeshHoldsNoMoreThanSaved(t *testing.T) {
	if testing.Short() {
		t.Skip("converges 100k routes")
	}
	base := heapInuse()
	m := clustered1000x100()
	m.Converge()
	converged := heapInuse() - base
	var w snapshot.Writer
	m.SaveState(&w)
	m = nil

	base = heapInuse()
	m2 := clustered1000x100()
	if err := m2.LoadState(snapshot.NewReader(w.Data())); err != nil {
		t.Fatal(err)
	}
	restored := heapInuse() - base
	runtime.KeepAlive(m2)
	if restored > 1.02*converged {
		t.Errorf("restored mesh holds %.1f MB, the converged one %.1f MB: more than 1.02x", restored/(1<<20), converged/(1<<20))
	}
}

// TestLoadStateAllocatesWhatItDecodes: a section that declares as many
// routes as its remaining bytes admit, and then holds ten, is refused with a
// typed error having allocated in proportion to its length — the table of
// pointers the count was validated for and one chunk of routes — and not the
// hundred thousand routes it declared.
func TestLoadStateAllocatesWhatItDecodes(t *testing.T) {
	const declared = 100_000
	var w snapshot.Writer
	for i := 0; i < 8; i++ {
		w.I64(0) // mesh counters
	}
	w.U64(0) // session states
	w.U64(0) // newly suppressed prefixes
	w.U64(declared)
	c := snapshot.Saver(&w)
	for i := 0; i < 10; i++ {
		new(routeTable).route(c, &VPNRoute{OriginPE: topo.NodeID(i)})
	}
	// Ten bytes with the continuation bit set are no varint.
	section := append(w.Data(), bytes.Repeat([]byte{0xff}, declared*routeMin)...)

	m := NewMesh()
	var err error
	allocs := testing.AllocsPerRun(1, func() { err = m.LoadState(snapshot.NewReader(section)) })
	if !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrTruncated) {
		t.Fatalf("err = %v, want a typed error", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_ = m.LoadState(snapshot.NewReader(section))
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(section)) {
		t.Errorf("refusing a %d-byte section allocated %d bytes", len(section), got)
	}
	if allocs > 20 {
		t.Errorf("refusing the section took %.0f allocations, want a handful", allocs)
	}
}
