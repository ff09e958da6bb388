package core

import (
	"fmt"
	"testing"

	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

// diamond builds PE1 -> {P-up, P-down} -> PE2 with equal metrics: a
// two-way ECMP core.
func diamond(cfg Config) *Backbone {
	b := NewBackbone(cfg)
	b.AddPE("PE1")
	b.AddP("P-up")
	b.AddP("P-down")
	b.AddPE("PE2")
	b.Link("PE1", "P-up", 100e6, sim.Millisecond, 1)
	b.Link("P-up", "PE2", 100e6, sim.Millisecond, 1)
	b.Link("PE1", "P-down", 100e6, sim.Millisecond, 1)
	b.Link("P-down", "PE2", 100e6, sim.Millisecond, 1)
	b.BuildProvider()
	return b
}

func TestECMPSplitsFlows(t *testing.T) {
	b := diamond(Config{Seed: 70})
	twoSites(b)
	// 32 distinct flows (different ports) hash across both paths.
	for i := 0; i < 32; i++ {
		f, err := b.FlowBetween(fmt.Sprintf("f%d", i), "hq", "branch", uint16(10000+i*7))
		if err != nil {
			t.Fatal(err)
		}
		trafgen.CBR(b.Net, f, 200, 50*sim.Millisecond, 0, 500*sim.Millisecond)
	}
	b.Net.Run()
	up := b.Router("P-up").LabelLookups
	down := b.Router("P-down").LabelLookups
	if up == 0 || down == 0 {
		t.Fatalf("ECMP did not split: up=%d down=%d", up, down)
	}
	total := up + down
	// Rough balance: neither path below 20% of traffic.
	if up*5 < total || down*5 < total {
		t.Fatalf("ECMP badly unbalanced: up=%d down=%d", up, down)
	}
	if b.Net.Dropped != 0 {
		t.Fatalf("drops during ECMP: %d", b.Net.Dropped)
	}
}

func TestECMPFlowAffinity(t *testing.T) {
	// A single flow must stick to one path: no packet reordering.
	b := diamond(Config{Seed: 71})
	twoSites(b)
	f, _ := b.FlowBetween("f", "hq", "branch", 5000)
	var seqs []uint64
	b.OnDeliver(func(_ topo.NodeID, p *packet.Packet) { seqs = append(seqs, p.Seq) })
	trafgen.CBR(b.Net, f, 1000, sim.Millisecond, 0, 500*sim.Millisecond)
	b.Net.Run()

	up := b.Router("P-up").LabelLookups
	down := b.Router("P-down").LabelLookups
	if up != 0 && down != 0 {
		t.Fatalf("single flow split across paths: up=%d down=%d", up, down)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("reordering at %d: %d after %d", i, seqs[i], seqs[i-1])
		}
	}
}

func TestECMPSurvivesMemberFailure(t *testing.T) {
	b := diamond(Config{Seed: 72})
	twoSites(b)
	b.FailLink("PE1", "P-up", 0)
	// All flows now take the surviving path, losslessly (post-reconverge).
	for i := 0; i < 8; i++ {
		f, _ := b.FlowBetween(fmt.Sprintf("f%d", i), "hq", "branch", uint16(11000+i))
		trafgen.CBR(b.Net, f, 200, 20*sim.Millisecond, 0, 300*sim.Millisecond)
	}
	b.Net.Run()
	if b.Net.Dropped != 0 {
		t.Fatalf("drops after ECMP member failure: %d", b.Net.Dropped)
	}
	if b.Router("P-up").LabelLookups != 0 {
		t.Fatal("traffic used the failed path")
	}
	if b.Router("P-down").LabelLookups == 0 {
		t.Fatal("surviving path unused")
	}
}

func TestECMPIGPRouteHasBothNextHops(t *testing.T) {
	b := diamond(Config{Seed: 73})
	pe1 := b.mustNode("PE1")
	pe2 := b.mustNode("PE2")
	r, ok := b.IGP.Instance(pe1).RouteTo(pe2)
	if !ok {
		t.Fatal("no route PE1->PE2")
	}
	if len(r.NextHops) != 2 {
		t.Fatalf("ECMP next hops = %d, want 2", len(r.NextHops))
	}
	seen := map[topo.NodeID]bool{}
	for _, lid := range r.NextHops {
		seen[b.G.Link(lid).To] = true
	}
	if !seen[b.mustNode("P-up")] || !seen[b.mustNode("P-down")] {
		t.Fatalf("next hops wrong: %v", r.NextHops)
	}
}
