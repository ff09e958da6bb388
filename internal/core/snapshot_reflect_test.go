package core

import (
	"fmt"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/sim"
)

// reflectedBackbone is a ReflectorClusters backbone with no survivability
// plane, so nothing follows the last speaker's Adj-RIB-In in the bgp
// checkpoint section. The PEs are created last: the highest-numbered speaker
// is a reflector client holding reflected routes.
func reflectedBackbone() *Backbone {
	b := NewBackbone(Config{Seed: 41, ReflectorClusters: 2})
	b.AddP("P1")
	b.AddP("P2")
	for i := 1; i <= 6; i++ {
		b.AddPE(fmt.Sprintf("PE%d", i))
	}
	b.Link("P1", "P2", 10e6, sim.Millisecond, 1)
	for i := 1; i <= 6; i++ {
		b.Link(fmt.Sprintf("PE%d", i), fmt.Sprintf("P%d", 1+i%2), 10e6, sim.Millisecond, 1)
	}
	b.BuildProvider()
	b.DefineVPN("v")
	for i := 1; i <= 6; i++ {
		b.AddSite(SiteSpec{VPN: "v", Name: fmt.Sprintf("s%d", i), PE: fmt.Sprintf("PE%d", i),
			Prefixes: []addr.Prefix{addr.NewPrefix(addr.IPv4(0x0a000000|uint32(i)<<16), 16)}})
	}
	b.ConvergeVPNs()
	return b
}

// TestRestoreReflectorClustersWithoutSurvivability: core.Restore of a
// clustered-reflection backbone used to fail with "element count exceeds
// input" unless survivability bookkeeping happened to follow the last
// reflected route in the bgp section (bgp.loadRoute's CLUSTER_LIST bound).
func TestRestoreReflectorClustersWithoutSurvivability(t *testing.T) {
	const fp = "reflected"
	b := reflectedBackbone()
	last := b.peNodes[len(b.peNodes)-1]
	sp, _ := b.BGP.Speaker(last)
	reflected := false
	for _, r := range sp.BestRoutes() {
		reflected = reflected || len(r.ClusterList) > 0
	}
	if !reflected {
		t.Fatal("the highest-numbered speaker holds no reflected route: the regression would be vacuous")
	}
	b.E.MarkSetup()
	b.Net.RunUntil(50 * sim.Millisecond)
	data, err := b.Snapshot(fp)
	if err != nil {
		t.Fatal(err)
	}
	b2 := reflectedBackbone()
	if err := b2.Restore(data, fp); err != nil {
		t.Fatalf("Restore of a ReflectorClusters backbone: %v", err)
	}
	if got, want := b2.StateDigest(), b.StateDigest(); got != want {
		t.Errorf("restored digest differs:\n%s\nvs\n%s", got, want)
	}
}
