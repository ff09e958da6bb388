package topo

import (
	"fmt"
	"testing"

	"mplsvpn/internal/sim"
)

// naivePairDelay is the oracle: for every ordered shard pair, the minimum
// delay over all links crossing that pair, by brute-force link scan.
func naivePairDelay(g *Graph, pr *PartitionResult) [][]sim.Time {
	k := pr.NumShards
	m := make([][]sim.Time, k)
	for i := range m {
		m[i] = make([]sim.Time, k)
		for j := range m[i] {
			if i != j {
				m[i][j] = sim.MaxTime
			}
		}
	}
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(LinkID(i))
		si, sj := pr.Assign[l.From], pr.Assign[l.To]
		if si != sj && l.Delay < m[si][sj] {
			m[si][sj] = l.Delay
		}
	}
	return m
}

// randomPairGraph grows a connected graph with rng-chosen extra links and a
// spread of positive delays.
func randomPairGraph(rng *sim.Rand, nodes, extra int) *Graph {
	g := New()
	ids := make([]NodeID, nodes)
	for i := range ids {
		ids[i] = g.AddNode(fmt.Sprintf("n%d", i))
	}
	delay := func() sim.Time {
		return sim.Time(rng.Intn(20)+1) * 500 * sim.Microsecond
	}
	// Spanning tree first so the graph is connected.
	for i := 1; i < nodes; i++ {
		g.AddDuplexLink(ids[rng.Intn(i)], ids[i], 1e9, delay(), 1)
	}
	for e := 0; e < extra; e++ {
		a, b := rng.Intn(nodes), rng.Intn(nodes)
		if a == b {
			continue
		}
		g.AddDuplexLink(ids[a], ids[b], 1e9, delay(), 1)
	}
	return g
}

// TestPairDelayMatchesOracle is the property test for the lookahead
// matrix: across randomized partitions, every pair entry must equal the
// brute-force per-pair minimum, the tightest finite entry must equal the
// global min-cut delay, and Validate must agree.
func TestPairDelayMatchesOracle(t *testing.T) {
	rng := sim.NewRand(0xBADC0FFE)
	for trial := 0; trial < 40; trial++ {
		nodes := rng.Intn(28) + 4
		g := randomPairGraph(rng, nodes, rng.Intn(2*nodes))
		k := rng.Intn(8) + 1
		pr := Partition(g, k)
		if err := pr.Validate(g); err != nil {
			t.Fatalf("trial %d (nodes=%d k=%d): %v", trial, nodes, k, err)
		}
		want := naivePairDelay(g, pr)
		for i := 0; i < pr.NumShards; i++ {
			for j := 0; j < pr.NumShards; j++ {
				if got := pr.PairDelay[i][j]; got != want[i][j] {
					t.Fatalf("trial %d: PairDelay[%d][%d] = %v, oracle %v", trial, i, j, got, want[i][j])
				}
			}
		}
	}
}
