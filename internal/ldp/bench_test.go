package ldp

import (
	"fmt"
	"testing"

	"mplsvpn/internal/ospf"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
)

func benchLDP(b *testing.B, n int, mode Mode) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		g := topo.New()
		ids := make([]topo.NodeID, n)
		for j := range ids {
			ids[j] = g.AddNode(fmt.Sprintf("r%d", j))
		}
		for j := range ids {
			g.AddDuplexLink(ids[j], ids[(j+1)%n], 1e9, sim.Millisecond, 1)
		}
		d := ospf.NewDomain(g)
		d.Converge()
		p := New(g, d)
		p.Mode = mode
		p.Converge()
	}
}

func BenchmarkLDPOrdered16(b *testing.B)     { benchLDP(b, 16, Ordered) }
func BenchmarkLDPIndependent16(b *testing.B) { benchLDP(b, 16, Independent) }
func BenchmarkLDPOrdered48(b *testing.B)     { benchLDP(b, 48, Ordered) }

// pop147 lays the repository benchmark's pop147 provider out as a bare
// graph: a 7x7 grid of P routers with metrics 1-4 and two PEs on each.
func pop147() *topo.Graph {
	const side = 7
	g := topo.New()
	p := func(i, j int) topo.NodeID { return topo.NodeID(i*side + j) }
	for i := 0; i < side*side; i++ {
		g.AddNode(fmt.Sprintf("P%d", i))
	}
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			if j+1 < side {
				g.AddDuplexLink(p(i, j), p(i, j+1), 1e9, sim.Millisecond, 1+(i*7+j*3)%4)
			}
			if i+1 < side {
				g.AddDuplexLink(p(i, j), p(i+1, j), 1e9, sim.Millisecond, 1+(i*5+j*11)%4)
			}
		}
	}
	for k := 0; k < 2*side*side; k++ {
		g.AddDuplexLink(g.AddNode(fmt.Sprintf("PE%d", k)), topo.NodeID(k/2), 1e9, sim.Millisecond, 1)
	}
	return g
}

// BenchmarkLDPOrderedPop147 is the label plane flooded from nothing at the
// repository benchmark's shape, 147 x 146 LSPs over a converged IGP: what
// every build and every node crash or restart pays.
func BenchmarkLDPOrderedPop147(b *testing.B) {
	g := pop147()
	d := ospf.NewDomain(g)
	d.Converge()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(g, d).Converge()
	}
}
