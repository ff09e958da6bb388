package mpls

import (
	"fmt"
	"testing"

	"mplsvpn/internal/packet"
	"mplsvpn/internal/topo"
)

var benchOut topo.LinkID

// BenchmarkILM is the transit lookup and swap alone: 1,000 labels bound per
// LFIB, looked up in a scattered order, on one hot table and round-robin
// over 470 (one per port of backbone200, so each call meets a table the
// cache has forgotten).
func BenchmarkILM(b *testing.B) {
	for _, tables := range []int{1, 470} {
		b.Run(fmt.Sprintf("lfibs%d", tables), func(b *testing.B) {
			lfibs := make([]*LFIB, tables)
			for i := range lfibs {
				lfibs[i] = NewLFIB()
				for l := 0; l < 1000; l++ {
					lfibs[i].BindILM(packet.Label(16+l), NHLFE{Op: OpSwap, OutLabel: packet.Label(5000 + l), OutLink: topo.LinkID(l % 8)})
				}
			}
			p := &packet.Packet{IP: packet.IPv4Header{TTL: 64}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.MPLS = packet.StackOf(packet.LabelStackEntry{Label: packet.Label(16 + i*7%1000), TTL: 64})
				benchOut, _, _ = lfibs[i%tables].ProcessLabeled(p)
			}
		})
	}
}
