package bgp

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
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
	if r, ok := last.Best(p); !ok || r.Reflected == nil {
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
			if oka != okb || (oka && (ra.NextHop != rb.NextHop || ra.Label != rb.Label || fmt.Sprint(ra.Reflected) != fmt.Sprint(rb.Reflected))) {
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
// three-cluster mesh: length and CRC-32C recorded at the commit that made it
// attribute sets, a route table of (prefix, label, set) and handles
// (snapshot.Version 6). See the chaos package's test of the same name for
// the whole-container pins.
func TestCheckpointBytesUnchanged(t *testing.T) {
	m := threeClusterMesh()
	m.Converge()
	var w snapshot.Writer
	m.SaveState(&w)
	const wantLen, wantCRC = 596, 0x3fb83457
	if got := crc32.Checksum(w.Data(), crc32.MakeTable(crc32.Castagnoli)); w.Len() != wantLen || got != wantCRC {
		t.Errorf("3-cluster mesh: %d bytes, CRC-32C %#08x; the recorded format is %d bytes, %#08x", w.Len(), got, wantLen, wantCRC)
	}
}

// restartingMesh is a small mesh with everything Converge orders arrivals
// by: two clusters of redundant reflectors, clients that share prefixes and
// reflectors that originate one prefix (full ties broken by arrival order),
// an untagged route, a prefix that flapped under damping, and one client in
// graceful restart whose routes its peers hold stale.
func restartingMesh() *Mesh {
	m := NewMesh()
	for _, n := range []topo.NodeID{1, 2, 3, 4, 100, 101, 102, 103, 104} {
		m.AddSpeaker(n, Loopback(n))
	}
	m.UseClusters([]Cluster{
		{ID: 10, RRs: []topo.NodeID{1, 2}, Clients: []topo.NodeID{100, 101, 102}},
		{ID: 20, RRs: []topo.NodeID{3, 4}, Clients: []topo.NodeID{103, 104}},
	})
	now := sim.Time(0)
	m.SetClock(clockAt(&now))
	m.SetDamping(DampingConfig{Penalty: 1000, Suppress: 1500, Reuse: 700, HalfLife: 10 * sim.Second})
	anycast := func(pe topo.NodeID, i int) *VPNRoute {
		return &VPNRoute{
			Prefix:  addr.VPNPrefix{RD: vpnRD(1), Prefix: addr.MustParsePrefix(fmt.Sprintf("10.9.%d.0/24", i))},
			NextHop: Loopback(1), Label: packet.Label(2000 + pe), LocalPref: 100, OriginPE: pe,
			RTs: []addr.RouteTarget{vpnRT(i % 2)},
		}
	}
	untagged := func(pe topo.NodeID) *VPNRoute {
		return &VPNRoute{
			Prefix:  addr.VPNPrefix{RD: vpnRD(2), Prefix: addr.MustParsePrefix(fmt.Sprintf("10.2.%d.0/24", pe))},
			NextHop: Loopback(pe), Label: packet.Label(1000 + pe), LocalPref: 100, OriginPE: pe,
		}
	}
	for _, pe := range []topo.NodeID{100, 101, 102, 103, 104} {
		s, _ := m.Speaker(pe)
		if pe != 104 {
			m.SetRTInterest(pe, []addr.RouteTarget{vpnRT(0), vpnRT(1)})
		}
		for i := 0; i < 3; i++ {
			s.Originate(anycast(pe, i))
		}
		s.Originate(untagged(pe))
	}
	for _, rrn := range []topo.NodeID{2, 1, 3} { // reflectors originate too: one prefix, full ties
		s, _ := m.Speaker(rrn)
		s.Originate(anycast(rrn, 8))
	}
	m.Converge()
	flapper, _ := m.Speaker(103)
	for flap := 0; flap < 2; flap++ {
		now += sim.Second
		flapper.WithdrawLocal(untagged(103).Prefix)
		m.Converge()
		now += sim.Second
		flapper.Originate(untagged(103))
		m.Converge()
	}
	m.SessionDown(102, true)
	now += sim.Second
	m.Converge()
	return m
}

// TestConvergeSectionPinned pins what Converge leaves, through the "bgp"
// section it checkpoints to: CRC-32C values recorded at snapshot.Version 6,
// on a Converge that left every route and selection as the one before it
// did. Arrival order decides every Adj-RIB-In's order inside a prefix and
// the route table's numbering, so any change to the order in which a
// speaker hears its routes moves these bytes.
func TestConvergeSectionPinned(t *testing.T) {
	crc := func(m *Mesh) uint32 {
		var w snapshot.Writer
		m.SaveState(&w)
		return crc32.Checksum(w.Data(), crc32.MakeTable(crc32.Castagnoli))
	}
	small := restartingMesh()
	if small.RouteSuppressions == 0 || small.StaleCount() == 0 {
		t.Fatalf("restarting mesh: %d suppressions, %d stale routes: the pin would not cover damping and restart",
			small.RouteSuppressions, small.StaleCount())
	}
	if got, want := crc(small), uint32(0x50187b5c); got != want {
		t.Errorf("restarting mesh: CRC-32C %#08x, recorded %#08x", got, want)
	}
	if testing.Short() {
		return
	}
	m := clustered1000x100()
	m.Converge()
	if got, want := crc(m), uint32(0x40ec7704); got != want {
		t.Errorf("vpnv4_100k mesh: CRC-32C %#08x, recorded %#08x", got, want)
	}
}

// reachable returns the handles a mesh's exports and runs hold, once per
// holder.
func reachable(m *Mesh) []uint32 {
	var out []uint32
	for _, s := range m.speakers {
		for _, run := range [][]uint32{s.exports, s.rib.paths, s.rib.best} {
			out = append(out, run...)
		}
	}
	return out
}

// distinctRoutes counts the routes reachable from a mesh.
func distinctRoutes(m *Mesh) int {
	seen := map[uint32]bool{}
	for _, h := range reachable(m) {
		seen[h] = true
	}
	return len(seen)
}

// distinctLists counts the backing arrays behind the route-target lists and
// behind the cluster lists of the routes reachable from a mesh, and the
// Reflections those routes carry.
func distinctLists(m *Mesh) (rts, clusters, refls int) {
	seenRTs, seenClusters, seenRefls := map[*addr.RouteTarget]bool{}, map[*uint32]bool{}, map[*Reflection]bool{}
	for _, h := range reachable(m) {
		r := m.attrsOf(h)
		if len(r.RTs) > 0 {
			seenRTs[&r.RTs[0]] = true
		}
		if r.Reflected != nil {
			seenClusters[&r.Reflected.ClusterList[0]] = true
			seenRefls[r.Reflected] = true
		}
	}
	return len(seenRTs), len(seenClusters), len(seenRefls)
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
	// Six target lists, one per original, three cluster lists, one per
	// cluster, and six Reflections, one per originator, in the mesh that was
	// saved.
	rts, clusters, refls := distinctLists(m)
	if rts != 6 || clusters != 3 || refls != 6 {
		t.Fatalf("converged mesh holds %d route-target lists, %d cluster lists and %d reflections, want 6, 3 and 6", rts, clusters, refls)
	}
	if gotRTs, gotClusters, gotRefls := distinctLists(m2); gotRTs > rts || gotClusters > clusters || gotRefls > refls {
		t.Errorf("restored mesh holds %d route-target lists, %d cluster lists and %d reflections, the saved one %d, %d and %d",
			gotRTs, gotClusters, gotRefls, rts, clusters, refls)
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
	c := snapshot.Saver(&w)
	w.U64(1) // attribute sets
	new(routeTable).set(c, new(attrs))
	w.U64(declared)
	for i := 0; i < 10; i++ {
		p := addr.VPNPrefix{Prefix: addr.NewPrefix(addr.IPv4(i), 32)}
		addr.VPNPrefixState(c, &p)
		w.U64(16) // label
		w.U64(0)  // the set
	}
	// Ten bytes with the continuation bit set are no varint.
	section := append(w.Data(), bytes.Repeat([]byte{0xff}, declared*entryMin)...)

	m := NewMesh()
	if err := m.LoadState(snapshot.NewReader(section)); !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrTruncated) {
		t.Fatalf("err = %v, want a typed error", err)
	}
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	// One load, measured with the collector held off: a collection inside
	// it would empty the error formatter's sync.Pool, which the load above
	// filled, and count its refill.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_ = m.LoadState(snapshot.NewReader(section))
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(section)) {
		t.Errorf("refusing a %d-byte section allocated %d bytes", len(section), got)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > 20 {
		t.Errorf("refusing the section took %d allocations, want a handful", allocs)
	}
}

// checkTable requires m's route table to hold exactly the routes its
// exports and runs reference, every handle referenced, and its attribute
// sets exactly the sets those routes carry, each once and each found by its
// attributes.
func checkTable(t *testing.T, m *Mesh, what string) {
	t.Helper()
	referenced := make([]bool, len(m.routes))
	for _, h := range reachable(m) {
		referenced[h] = true
	}
	carried := make([]bool, m.sets.n)
	for h, e := range m.routes {
		if !referenced[h] {
			t.Fatalf("%s: handle %d (%v) is referenced by nothing", what, h, e)
		}
		carried[e.attr] = true
	}
	for i := range carried {
		set := m.sets.at(uint32(i))
		if !carried[i] {
			t.Fatalf("%s: set %d (%+v) is carried by no route", what, i, *set)
		}
		if j, ok := m.sets.find(set); !ok || j != uint32(i) {
			t.Fatalf("%s: set %d (%+v) is found as %d (%v)", what, i, *set, j, ok)
		}
	}
}

// TestRouteTableHoldsWhatIsReachable scripts fifty rounds of churn on the
// restarting mesh — a session lost, gracefully or not; one of the lost
// speaker's prefixes withdrawn and re-originated as a new route while it is
// down; the session back; the stale routes swept — and requires after every
// Converge that the route table hold exactly what the exports and runs
// reference, and after every round no more routes than the settled mesh
// did: what a round replaces or drops leaves the table.
func TestRouteTableHoldsWhatIsReachable(t *testing.T) {
	m := restartingMesh()
	converge := func(what string) {
		t.Helper()
		m.Converge()
		checkTable(t, m, what)
	}
	m.SessionUp(102) // the restarting mesh leaves 102 in graceful restart
	converge("settling")
	m.SweepStale(102)
	converge("settled")
	settled := len(m.routes)
	rng := rand.New(rand.NewSource(50))
	nodes := m.sortedIDs()
	for round := 0; round < 50; round++ {
		n := nodes[rng.Intn(len(nodes))]
		s := m.speakers[n]
		graceful := rng.Intn(2) == 0
		what := fmt.Sprintf("round %d, node %d (graceful %v)", round, n, graceful)
		m.SessionDown(n, graceful)
		converge(what + ", down")
		if len(s.exports) > 0 {
			var old VPNRoute
			m.view(s.exports[rng.Intn(len(s.exports))], &old)
			s.WithdrawLocal(old.Prefix)
			converge(what + ", withdrawn")
			r := old
			r.Label++
			s.Originate(&r)
		}
		m.SessionUp(n)
		converge(what + ", up")
		m.SweepStale(n)
		converge(what + ", swept")
		if len(m.routes) > settled {
			t.Fatalf("%s: the table holds %d routes, the settled mesh %d", what, len(m.routes), settled)
		}
	}
}
