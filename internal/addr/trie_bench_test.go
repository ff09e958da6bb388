package addr

import (
	"math/rand"
	"testing"
)

// The benchmarks below use the exported API alone, so the same file measures
// any implementation of Table (`go test -run='^$' -bench=BenchmarkTable
// -benchmem ./internal/addr`). Three shapes: vrf20 is what a PE ingress
// consults per customer packet — 20 site /24s under 10/8 and a destination
// that is always inside one of them — on one table that stays in cache and
// round-robin over 160 of them, the VRFs of a 200-site backbone, which do
// not; rand1k and rand100k are experiment E4's and the repository benchmark
// probes' shape, random prefixes of /16 to /32, looked up with addresses
// that hit and with addresses that miss.

// route has the size and pointer shape of vpn.Route, which this package
// cannot import.
type route struct {
	egress   int
	nextHop  IPv4
	label    uint32
	site     uint32
	local    bool
	external bool
}

var (
	sinkRoute route
	sinkInt   int
)

// vrfRoutes draws n of the 2,000 site prefixes 10.x.y.0/24.
func vrfRoutes(rng *rand.Rand, n int) []Prefix {
	ps := make([]Prefix, n)
	for i := range ps {
		ps[i] = NewPrefix(IPv4(0x0a000000|uint32(rng.Intn(2000)+1)<<8), 24)
	}
	return ps
}

func randRoutes(rng *rand.Rand, n int) []Prefix {
	ps := make([]Prefix, n)
	for i := range ps {
		ps[i] = NewPrefix(IPv4(rng.Uint32()), uint8(16+rng.Intn(17)))
	}
	return ps
}

var randShapes = []struct {
	name string
	n    int
}{{"rand1k", 1_000}, {"rand100k", 100_000}}

const benchProbes = 4096

func BenchmarkTableLookup(b *testing.B) {
	for _, c := range []struct {
		name   string
		tables int
	}{{"vrf20/hot", 1}, {"vrf20/160tables", 160}} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			tbs := make([]*Table[route], c.tables)
			for i := range tbs {
				tbs[i] = NewTable[route]()
				for _, p := range vrfRoutes(rng, 20) {
					tbs[i].Insert(p, route{nextHop: p.Addr})
				}
			}
			ips := make([]IPv4, benchProbes) // ips[i] is inside a route of the table it will be asked of
			for i := range ips {
				ps := tbs[i%c.tables].Prefixes()
				ips[i] = ps[rng.Intn(len(ps))].Addr | IPv4(1+rng.Intn(254))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % benchProbes
				v, ok := tbs[j%c.tables].Lookup(ips[j])
				if !ok {
					b.Fatal("miss")
				}
				sinkRoute = v
			}
		})
	}
	for _, c := range randShapes {
		rng := rand.New(rand.NewSource(2))
		tb := NewTable[int]()
		ps := randRoutes(rng, c.n)
		for i, p := range ps {
			tb.Insert(p, i)
		}
		var hits, misses []IPv4
		for len(hits) < benchProbes {
			p := ps[rng.Intn(c.n)]
			hits = append(hits, p.Addr|IPv4(rng.Uint32()&^mask(p.Len)))
		}
		for len(misses) < benchProbes {
			ip := IPv4(rng.Uint32())
			if _, ok := tb.Lookup(ip); !ok {
				misses = append(misses, ip)
			}
		}
		for _, probe := range []struct {
			name string
			ips  []IPv4
		}{{"hit", hits}, {"miss", misses}} {
			b.Run(c.name+"/"+probe.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					v, _ := tb.Lookup(probe.ips[i%benchProbes])
					sinkInt += v
				}
			})
		}
	}
}

// BenchmarkTableInsert builds a whole table per iteration: ns/op, B/op and
// allocs/op are per table, not per prefix.
func BenchmarkTableInsert(b *testing.B) {
	b.Run("vrf20", func(b *testing.B) {
		ps := vrfRoutes(rand.New(rand.NewSource(1)), 20)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tb := NewTable[route]()
			for _, p := range ps {
				tb.Insert(p, route{nextHop: p.Addr})
			}
		}
	})
	for _, c := range randShapes {
		b.Run(c.name, func(b *testing.B) {
			ps := randRoutes(rand.New(rand.NewSource(2)), c.n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tb := NewTable[int]()
				for j, p := range ps {
					tb.Insert(p, j)
				}
			}
		})
	}
}
