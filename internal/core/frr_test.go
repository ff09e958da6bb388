package core

import (
	"testing"

	"mplsvpn/internal/sim"
	"mplsvpn/internal/trafgen"
)

// frrRing builds PE1 - P1 - P2 - PE2 with a protection arc P1 - P3 - P2:
// the P1-P2 fibre is FRR-protectable via P3.
func frrRing(cfg Config) *Backbone {
	b := NewBackbone(cfg)
	b.AddPE("PE1")
	b.AddP("P1")
	b.AddP("P2")
	b.AddP("P3")
	b.AddPE("PE2")
	b.Link("PE1", "P1", 100e6, sim.Millisecond, 1)
	b.Link("P1", "P2", 100e6, sim.Millisecond, 1)
	b.Link("P2", "PE2", 100e6, sim.Millisecond, 1)
	b.Link("P1", "P3", 100e6, sim.Millisecond, 5)
	b.Link("P3", "P2", 100e6, sim.Millisecond, 5)
	b.BuildProvider()
	return b
}

func frrLoss(t *testing.T, frr bool) (loss float64, viaP3 bool) {
	t.Helper()
	b := frrRing(Config{Seed: 120, FRR: frr})
	twoSites(b)
	f, err := b.FlowBetween("f", "hq", "branch", 80)
	if err != nil {
		t.Fatal(err)
	}
	trafgen.CBR(b.Net, f, 200, 2*sim.Millisecond, 0, 3*sim.Second)
	// Slow head-end convergence: 500 ms. FRR has 1 ms local repair.
	b.At(sim.Second, func() { b.FailLink("P1", "P2", 500*sim.Millisecond) })
	b.Net.Run()
	return f.Stats.LossRate(), b.Router("P3").LabelLookups > 0
}

func TestFRRCutsLossToLocalRepairWindow(t *testing.T) {
	noFRR, _ := frrLoss(t, false)
	withFRR, viaP3 := frrLoss(t, true)
	// Unprotected: ~500ms of a 3s flow lost ≈ 17%.
	if noFRR < 0.10 {
		t.Fatalf("unprotected loss only %v: failure not binding", noFRR)
	}
	// FRR: only the ~1ms local repair window (a packet or two).
	if withFRR > 0.01 {
		t.Fatalf("FRR loss = %v, want <1%%", withFRR)
	}
	if !viaP3 {
		t.Fatal("bypass path never carried traffic")
	}
	if withFRR >= noFRR/10 {
		t.Fatalf("FRR improvement too small: %v vs %v", withFRR, noFRR)
	}
}

func TestFRRBypassesPreSignalled(t *testing.T) {
	b := frrRing(Config{Seed: 121, FRR: true})
	// Every core link with an alternative path has a bypass; the
	// PE-adjacent links (PE1-P1 etc.) have none in this topology... in
	// fact PE1-P1's only alternative would traverse PE1 itself, so check
	// the protected middle link explicitly.
	p1, _ := b.G.NodeByName("P1")
	p2, _ := b.G.NodeByName("P2")
	l, _ := b.G.FindLink(p1, p2)
	byp, ok := b.bypasses[l.ID]
	if !ok {
		t.Fatal("P1-P2 has no bypass")
	}
	nodes := byp.Path.Nodes(b.G)
	if len(nodes) != 3 || b.G.Name(nodes[1]) != "P3" {
		t.Fatalf("bypass path = %s", byp.Path.String(b.G))
	}
	// Bypass reserves nothing.
	if l2, _ := b.G.FindLink(p1, b.mustNode("P3")); l2.ReservedBw != 0 {
		t.Fatalf("bypass reserved bandwidth: %v", l2.ReservedBw)
	}
}

func TestFRRThenReconvergeIsClean(t *testing.T) {
	// After the head-end reconverges, traffic keeps flowing (now on the
	// recomputed LSPs) with no leftover detour breakage.
	b := frrRing(Config{Seed: 122, FRR: true})
	twoSites(b)
	f, _ := b.FlowBetween("f", "hq", "branch", 80)
	trafgen.CBR(b.Net, f, 200, 2*sim.Millisecond, 0, 4*sim.Second)
	b.At(sim.Second, func() { b.FailLink("P1", "P2", 300*sim.Millisecond) })
	b.Net.Run()
	if f.Stats.LossRate() > 0.01 {
		t.Fatalf("loss across FRR->reconverge handoff = %v", f.Stats.LossRate())
	}
	// Deliveries continued to the end of the run.
	if f.Stats.Delivered < f.Stats.Sent*99/100 {
		t.Fatalf("delivery stalled: %d/%d", f.Stats.Delivered, f.Stats.Sent)
	}
}
