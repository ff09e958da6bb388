package chaos

import (
	"fmt"
	"strings"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/core"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

// The fused-hop checkpoint boundary. A 2 Mb/s, 10 ms bottleneck carries one
// 1236-byte packet every 6 ms: each serializes for 4.944 ms and is still
// propagating when the next one starts. The cut falls 0.91 ms into a
// packet, so the port is saved with busyUntil in the future, the packet
// behind it in flight, and no event pending at the end of serialization —
// the instant at which the restored run, like the uninterrupted one, must
// still settle the tx ledger and decide the packet's fate when the link
// dies 1 ms after the cut.

const (
	fusedCut     = 100 * sim.Millisecond
	fusedFail    = 101 * sim.Millisecond
	fusedRestore = 150 * sim.Millisecond
	fusedHorizon = 300 * sim.Millisecond
)

type fusedRig struct {
	b *core.Backbone
}

func buildFusedRig(t testing.TB, shards int) *fusedRig {
	t.Helper()
	b := core.NewBackbone(core.Config{Seed: 31, Scheduler: core.SchedHybrid})
	b.AddPE("PE1")
	b.AddP("P1")
	b.AddP("P2")
	b.AddPE("PE2")
	b.Link("PE1", "P1", 10e6, sim.Millisecond, 1)
	b.Link("P1", "P2", 2e6, 10*sim.Millisecond, 1)
	b.Link("P2", "PE2", 10e6, sim.Millisecond, 1)
	b.BuildProvider()
	b.DefineVPN("acme")
	b.AddSite(core.SiteSpec{VPN: "acme", Name: "hq", PE: "PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.AddSite(core.SiteSpec{VPN: "acme", Name: "branch", PE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	b.ConvergeVPNs()
	if shards > 0 {
		if _, err := b.EnableSharding(core.ShardingOptions{Shards: shards, Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	f, err := b.FlowBetween("bulk", "hq", "branch", 80)
	if err != nil {
		t.Fatal(err)
	}
	r, err := b.FlowBetween("back", "branch", "hq", 443)
	if err != nil {
		t.Fatal(err)
	}
	b.RegisterSource(trafgen.CBR(b.Net, f, 1200, 6*sim.Millisecond, 0, fusedHorizon-20*sim.Millisecond))
	b.RegisterSource(trafgen.CBR(b.Net, r, 400, 5*sim.Millisecond, 29*sim.Microsecond, fusedHorizon-20*sim.Millisecond))
	return &fusedRig{b: b}
}

func (r *fusedRig) bottleneck() topo.LinkID {
	p1, _ := r.b.G.NodeByName("P1")
	p2, _ := r.b.G.NodeByName("P2")
	l, _ := r.b.G.FindLink(p1, p2)
	return l.ID
}

func (r *fusedRig) fingerprint() string {
	// StateDigest holds the flows. The packet, event and per-link counters
	// are in the net and engine sections, which depend on the shard count.
	var sb strings.Builder
	sb.WriteString(r.b.StateDigest())
	fmt.Fprintf(&sb, "net: injected=%d delivered=%d dropped=%d events=%d\n",
		r.b.Net.Injected, r.b.Net.Delivered, r.b.Net.Dropped, r.b.E.Executed())
	for i := 0; i < r.b.G.NumLinks(); i++ {
		id := topo.LinkID(i)
		fmt.Fprintf(&sb, "link %d: tx=%d offered=%d dropped=%d/%d\n", i, r.b.Net.LinkTxBytes(id),
			r.b.Net.LinkOfferedBytes(id), r.b.Net.LinkDroppedBytes(id), r.b.Net.LinkDroppedPkts(id))
	}
	return sb.String()
}

// finish plays the rest of the scenario from the cut: the bottleneck dies
// under the packet that was serializing at the cut and comes back later.
func (r *fusedRig) finish(t testing.TB) string {
	t.Helper()
	r.b.Net.RunUntil(fusedFail)
	if err := r.b.FailLink("P1", "P2", 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	r.b.Net.RunUntil(fusedRestore)
	if err := r.b.RestoreLink("P1", "P2", 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	r.b.Net.RunUntil(fusedHorizon)
	if err := r.b.Net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	return r.fingerprint()
}

func TestSnapshotMidSerializationMidPropagation(t *testing.T) {
	const fp = "fused-hop"
	for _, shards := range []int{0, 2} {
		live := buildFusedRig(t, shards)
		live.b.Net.RunUntil(fusedCut)
		l := live.bottleneck()
		wire := live.b.Net.LinkOfferedBytes(l) - live.b.Net.LinkTxBytes(l) - live.b.Net.LinkDroppedBytes(l)
		if wire != 1236 {
			t.Fatalf("shards=%d: %d bytes on the bottleneck wire at the cut, want one 1236-byte packet mid-serialization", shards, wire)
		}
		noClosures(t, live.b.E)
		data, err := live.b.Snapshot(fp)
		if err != nil {
			t.Fatalf("shards=%d snapshot: %v", shards, err)
		}
		tx := live.b.Net.LinkTxBytes(l)

		restored := buildFusedRig(t, shards)
		if err := restored.b.Restore(data, fp); err != nil {
			t.Fatalf("shards=%d restore: %v", shards, err)
		}
		if got := restored.b.Net.LinkTxBytes(l); got != tx {
			t.Errorf("shards=%d: LinkTxBytes %d after restore, %d before", shards, got, tx)
		}
		want, got := live.finish(t), restored.finish(t)
		if got != want {
			t.Errorf("shards=%d: restored run diverged; first difference:\n%s", shards, firstDiff(want, got))
		}
		// The packet cut mid-serialization was lost at the link's near end.
		if n := live.b.Net.LinkDroppedPkts(l); n < 1 {
			t.Errorf("shards=%d: the bottleneck port dropped %d packets, want the one serializing when the link died", shards, n)
		}
	}
}
