package topo

import (
	"fmt"
	"math/rand"
	"testing"

	"mplsvpn/internal/sim"
)

// mutateLink applies one random single-link event — the exact event class
// ApplyLinkChange contracts to handle — and returns the directed links the
// tracker must be told about.
func mutateLink(rng *rand.Rand, g *Graph) []LinkID {
	lid := LinkID(rng.Intn(g.NumLinks()))
	l := g.Link(lid)
	switch rng.Intn(4) {
	case 0: // duplex flap, both directions (the FailLink/RestoreLink shape)
		rev, ok := g.Reverse(lid)
		if !ok {
			l.Down = !l.Down
			return []LinkID{lid}
		}
		down := !l.Down
		l.Down, rev.Down = down, down
		return []LinkID{lid, rev.ID}
	case 1: // single-direction flap
		l.Down = !l.Down
		return []LinkID{lid}
	case 2: // metric change
		l.Metric = 1 + rng.Intn(10)
		return []LinkID{lid}
	default: // reservation shift (matters only under a bandwidth floor)
		l.ReservedBw = float64(rng.Intn(11)) * 100e6
		return []LinkID{lid}
	}
}

func sameTree(t *testing.T, seed, step int, got, want *SPFResult) {
	t.Helper()
	for v := range want.Dist {
		if got.Dist[v] != want.Dist[v] || got.Prev[v] != want.Prev[v] {
			t.Fatalf("seed %d step %d node %d: incremental (dist=%d prev=%d), oracle (dist=%d prev=%d)",
				seed, step, v, got.Dist[v], got.Prev[v], want.Dist[v], want.Prev[v])
		}
	}
}

// TestIncrementalSPFMatchesOracleAcrossFlaps is the incremental-CSPF oracle
// contract: across random graphs, random constraint sets, and long random
// sequences of link flaps, metric changes, and reservation shifts, the
// incrementally-maintained tree must equal a from-scratch CSPF run after
// every single event — distances and the canonical lowest-link-ID Prev.
func TestIncrementalSPFMatchesOracleAcrossFlaps(t *testing.T) {
	for seed := 0; seed < 40; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		g := randomGraph(rng)
		src := NodeID(rng.Intn(g.NumNodes()))
		c := randomConstraints(rng, g, src)
		inc := NewIncrementalSPF(g, src, c)
		sameTree(t, seed, -1, inc.Result(), g.CSPF(src, c))
		for step := 0; step < 60; step++ {
			for _, lid := range mutateLink(rng, g) {
				inc.ApplyLinkChange(lid)
			}
			sameTree(t, seed, step, inc.Result(), g.CSPF(src, c))
		}
		if inc.IncrementalRuns == 0 {
			t.Fatalf("seed %d: no incremental updates exercised", seed)
		}
	}
}

// TestIncrementalSPFRebuildOnGrowth: a tracker whose graph has grown since
// the last build must fall back to a full recompute rather than serve a
// tree over a stale index.
func TestIncrementalSPFRebuildOnGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng)
	src := NodeID(0)
	inc := NewIncrementalSPF(g, src, Constraints{})
	full := inc.FullRuns

	n := g.AddNode("grown")
	a, _ := g.AddDuplexLink(n, NodeID(1), 1e9, sim.Millisecond, 1)
	inc.ApplyLinkChange(a)
	if inc.FullRuns != full+1 {
		t.Fatalf("growth did not trigger a full rebuild (FullRuns %d -> %d)", full, inc.FullRuns)
	}
	sameTree(t, 7, 0, inc.Result(), g.SPF(src))
}

// TestIncrementalSPFScopedIgnoresStubGrowth: a tree scoped to a node mask
// is not disturbed by nodes and links added outside it — the customer stubs
// a provider's TE trees must neither span nor pay for — and keeps equalling
// the scoped CSPF, which never routes through a stub even when the stub
// offers the cheaper path.
func TestIncrementalSPFScopedIgnoresStubGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng)
	src := NodeID(0)
	core := make([]NodeID, g.NumNodes())
	for i := range core {
		core[i] = NodeID(i)
	}
	c := Constraints{Within: g.NodeMask(core)}
	inc := NewIncrementalSPF(g, src, c)
	full := inc.FullRuns
	unscoped := g.SPF(src)

	for step := 0; step < 40; step++ {
		// A dual-homed stub at metric 1: a shortcut for any unscoped search.
		stub := g.AddNode(fmt.Sprintf("stub%d", step))
		a, b := NodeID(rng.Intn(len(core))), NodeID(rng.Intn(len(core)))
		l1, _ := g.AddDuplexLink(stub, a, 1e9, sim.Millisecond, 1)
		g.AddDuplexLink(stub, b, 1e9, sim.Millisecond, 1)
		inc.ApplyLinkChange(l1)
		for _, lid := range mutateLink(rng, g) {
			inc.ApplyLinkChange(lid)
		}
		got := inc.Result()
		want := g.CSPF(src, c)
		if len(want.Dist) != len(core) || want.Reachable(stub) {
			t.Fatalf("step %d: scoped CSPF spans %d nodes of a %d-node core, stub reachable: %t",
				step, len(want.Dist), len(core), want.Reachable(stub))
		}
		sameTree(t, 9, step, got, want)
		for v := range core {
			if p, ok := got.PathTo(g, NodeID(v)); ok {
				for _, n := range p.Nodes(g) {
					if int(n) >= len(core) {
						t.Fatalf("step %d: scoped path to %d transits stub %d", step, v, n)
					}
				}
			}
		}
	}
	if inc.FullRuns != full {
		t.Fatalf("stub growth rebuilt a scoped tree %d times", inc.FullRuns-full)
	}
	shortcut := false
	now := g.SPF(src)
	for v := range core {
		if now.Dist[v] < unscoped.Dist[v] && now.Dist[v] < g.CSPF(src, c).Dist[v] {
			shortcut = true
		}
	}
	if !shortcut {
		t.Fatal("no stub ever offered a cheaper path: the scope was never what kept paths inside")
	}
}

// TestClusterPEs checks the reflector-cluster helper: full coverage of the
// given PE set, at most k clusters, deterministic output, and members
// sorted within each cluster.
func TestClusterPEs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng)
	var pes []NodeID
	for i := 0; i < g.NumNodes(); i += 2 {
		pes = append(pes, NodeID(i))
	}
	for _, k := range []int{1, 2, 3, len(pes), len(pes) + 5} {
		clusters := ClusterPEs(g, pes, k)
		if len(clusters) == 0 || len(clusters) > k {
			t.Fatalf("k=%d: got %d clusters", k, len(clusters))
		}
		seen := map[NodeID]int{}
		for _, cl := range clusters {
			if len(cl) == 0 {
				t.Fatalf("k=%d: empty cluster", k)
			}
			for i, pe := range cl {
				seen[pe]++
				if i > 0 && cl[i-1] >= pe {
					t.Fatalf("k=%d: cluster not sorted: %v", k, cl)
				}
			}
		}
		for _, pe := range pes {
			if seen[pe] != 1 {
				t.Fatalf("k=%d: PE %d assigned %d times", k, pe, seen[pe])
			}
		}
		again := ClusterPEs(g, pes, k)
		if fmt.Sprint(again) != fmt.Sprint(clusters) {
			t.Fatalf("k=%d: ClusterPEs not deterministic", k)
		}
	}
}
