package bgp

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

func benchMesh(b *testing.B, speakers, routesPer int, rr bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		m := NewMesh()
		for s := 0; s < speakers; s++ {
			sp := m.AddSpeaker(topo.NodeID(s), addr.IPv4(uint32(s)))
			for r := 0; r < routesPer; r++ {
				sp.Originate(&VPNRoute{
					Prefix: addr.VPNPrefix{
						RD:     addr.RouteDistinguisher{Admin: 65000, Assigned: 1},
						Prefix: addr.NewPrefix(addr.IPv4(uint32(s*routesPer+r)<<8), 24),
					},
					NextHop: addr.IPv4(uint32(s)), Label: 100,
					RTs:      []addr.RouteTarget{{Admin: 65000, Assigned: 1}},
					OriginPE: topo.NodeID(s),
				})
			}
		}
		if rr {
			// A single route reflector: one cluster, every other speaker
			// its client.
			c := Cluster{ID: 1, RRs: []topo.NodeID{0}}
			for s := 1; s < speakers; s++ {
				c.Clients = append(c.Clients, topo.NodeID(s))
			}
			m.UseClusters([]Cluster{c})
		}
		m.Converge()
	}
}

func BenchmarkFullMesh8x50(b *testing.B)        { benchMesh(b, 8, 50, false) }
func BenchmarkFullMesh32x50(b *testing.B)       { benchMesh(b, 32, 50, false) }
func BenchmarkRouteReflector32x50(b *testing.B) { benchMesh(b, 32, 50, true) }

// clustered1000x100 builds, unconverged, the repository benchmark's
// vpnv4_100k shape: 1000 clients of 100 VPN-IPv4 /32s each, ten to a VPN,
// through 10 clusters of 2 reflectors, RT-constrained with one target per
// client.
func clustered1000x100() *Mesh {
	const clients, routesPer, perCluster = 1000, 100, 100
	m := NewMesh()
	var clusters []Cluster
	for p := 0; p < clients; p++ {
		rt := addr.RouteTarget{Admin: 65000, Assigned: uint32(p / 10 % 100)}
		sp := m.AddSpeaker(topo.NodeID(p), addr.IPv4(0xac000000+uint32(p)))
		sp.Filter = func(r *VPNRoute) bool { return r.HasRT(rt) }
		m.SetRTInterest(sp.Node, []addr.RouteTarget{rt})
		for r := 0; r < routesPer; r++ {
			sp.Originate(&VPNRoute{
				Prefix: addr.VPNPrefix{
					RD:     addr.RouteDistinguisher{Admin: 65000, Assigned: rt.Assigned},
					Prefix: addr.NewPrefix(addr.IPv4(uint32(p)<<8|uint32(r)), 32),
				},
				NextHop: sp.Loopback, Label: packet.Label(16 + p),
				RTs:      []addr.RouteTarget{rt},
				OriginPE: sp.Node,
			})
		}
		if p%perCluster == 0 {
			c := Cluster{ID: uint32(len(clusters) + 1)}
			for rr := 0; rr < 2; rr++ {
				n := topo.NodeID(clients + 2*len(clusters) + rr)
				m.AddSpeaker(n, addr.IPv4(0xad000000+uint32(n)))
				c.RRs = append(c.RRs, n)
			}
			clusters = append(clusters, c)
		}
		c := &clusters[len(clusters)-1]
		c.Clients = append(c.Clients, sp.Node)
	}
	m.UseClusters(clusters)
	return m
}

// heapInuse is the heap in use after a collection.
func heapInuse() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse)
}

// TestConvergeFootprint: at the vpnv4_100k shape, Converge allocates no
// more than 1.4 times what it leaves live. Receivers are filled one at a
// time through one tail, one sort buffer and one merge buffer, and a seal
// allocates its run once, at its size; a tail or buffer per speaker is
// garbage as large as the RIBs it fills, and shows here as five times.
// The race detector allocates more, so a -race build skips it.
func TestConvergeFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	m := clustered1000x100()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m.Converge()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	allocated, kept := float64(after.TotalAlloc-before.TotalAlloc), float64(after.HeapAlloc-before.HeapAlloc)
	t.Logf("Converge allocated %.1f MB and kept %.1f MB (%.2fx)", allocated/(1<<20), kept/(1<<20), allocated/kept)
	if allocated > 1.4*kept {
		t.Errorf("Converge allocated %.1f MB to keep %.1f MB: more than 1.4x", allocated/(1<<20), kept/(1<<20))
	}
}

// TestConvergeInternsAttributeSets: a converged clustered1000x100 mesh holds
// its 200,000 routes — 100,000 originated, one stamped copy of each — under
// exactly 2,000 attribute sets: a client's 100 routes share one set, and its
// cluster stamps that set once.
func TestConvergeInternsAttributeSets(t *testing.T) {
	m := clustered1000x100()
	m.Converge()
	if len(m.routes) != 200_000 || m.sets.n != 2_000 {
		t.Errorf("converged mesh holds %d routes under %d attribute sets, want 200000 under 2000", len(m.routes), m.sets.n)
	}
}

// BenchmarkClustered1000x100 is the vpnv4_100k shape measured at this layer
// alone: ns/update is Converge's time over the NLRIs it sent, B/route the
// heap a converged mesh holds (HeapInuse after a collection, less the same
// before the mesh was built) over its routes, alloc-B/route the bytes
// Converge allocated over the routes, and sets the attribute sets the
// converged mesh holds.
func BenchmarkClustered1000x100(b *testing.B) {
	const routes = 1000 * 100
	var convergeNs, updates, heap, allocated, sets float64
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := heapInuse()
		m := clustered1000x100()
		runtime.ReadMemStats(&ms)
		total := ms.TotalAlloc
		b.StartTimer()
		start := time.Now()
		m.Converge()
		convergeNs += float64(time.Since(start))
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		allocated += float64(ms.TotalAlloc - total)
		updates += float64(m.UpdatesSent)
		heap += heapInuse() - before
		sets += float64(m.sets.n)
		runtime.KeepAlive(m)
		b.StartTimer()
	}
	b.ReportMetric(convergeNs/updates, "ns/update")
	b.ReportMetric(heap/float64(b.N)/routes, "B/route")
	b.ReportMetric(allocated/float64(b.N)/routes, "alloc-B/route")
	b.ReportMetric(sets/float64(b.N), "sets")
}

// BenchmarkCheckpointMesh1000x100 is the vpnv4_100k checkpoint at this layer
// alone, save and load apart, taken as the repository benchmark takes them:
// SaveState of the converged mesh into a fresh Writer and LoadState of those
// bytes onto a mesh rebuilt from nothing, each from a collected heap and with
// the collector held off while it runs.
func BenchmarkCheckpointMesh1000x100(b *testing.B) {
	m := clustered1000x100()
	m.Converge()
	var saved snapshot.Writer
	m.SaveState(&saved)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(saved.Len()))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			runtime.GC()
			b.StartTimer()
			var w snapshot.Writer
			m.SaveState(&w)
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(saved.Len()))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m2 := clustered1000x100()
			runtime.GC()
			b.StartTimer()
			if err := m2.LoadState(snapshot.NewReader(saved.Data())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// maxHeapPerRoute bounds the heap a converged clustered1000x100 mesh holds
// per route: 123 B measured when a route became a 24-byte entry under a
// shared attribute set and a Loc-RIB that selects every route it holds
// stopped copying them (299 B with 80-byte routes, 448 B before runs of
// handles), plus 10 %.
const maxHeapPerRoute = 135

// TestConvergeHeapPerRoute: what a converged mesh at the vpnv4_100k shape
// holds per route stays within maxHeapPerRoute. Its types are checked first
// and in every mode: a rib holds nothing the collector must follow into — its
// fields are slices of pointer-free elements — nor does the route table,
// whose entries are at most 24 bytes.
func TestConvergeHeapPerRoute(t *testing.T) {
	typ := reflect.TypeOf(rib{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Slice || hasPointers(f.Type.Elem()) {
			t.Errorf("rib.%s is a %s: the collector would have to scan it", f.Name, f.Type)
		}
	}
	table := reflect.TypeOf(Mesh{}.routes)
	if hasPointers(table.Elem()) {
		t.Errorf("the route table is a %s: the collector would have to scan it", table)
	}
	if size := table.Elem().Size(); size > 24 {
		t.Errorf("a route table entry is %d bytes, more than 24", size)
	}
	if testing.Short() {
		t.Skip("converges 100k routes")
	}
	const routes = 1000 * 100
	before := heapInuse()
	m := clustered1000x100()
	m.Converge()
	perRoute := (heapInuse() - before) / routes
	runtime.KeepAlive(m)
	t.Logf("converged mesh holds %.0f B/route", perRoute)
	if perRoute > maxHeapPerRoute {
		t.Errorf("converged mesh holds %.0f B/route, bound %d", perRoute, maxHeapPerRoute)
	}
}

// hasPointers reports whether a value of type typ holds a pointer.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.String, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
