package chaos

import (
	"fmt"
	"strings"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/core"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/trafgen"
)

// The link-flap checkpoint boundary. Link flaps keep the LDP instance, its
// labels and every router's label tables across reconvergences, so what a
// checkpoint cut between two flaps must carry is no longer a freshly flooded
// label plane but one that deltas have edited. The cut falls where the
// edits are deepest: P1-P2 and P3-P4 both down, the backbone split in two,
// every FEC across the split withdrawn and unbound with its label kept in
// reserve, two sessions gone from the retention database. The restored run
// must heal and take the remaining flaps exactly as the uninterrupted one
// does.

// flapScript is played through the injector.
const flapScript = `
fail P1 P2 at=100ms detect=10ms
fail P3 P4 at=200ms detect=10ms
restore P1 P2 at=400ms detect=10ms
fail PE1 P1 at=500ms detect=0ms
restore P3 P4 at=600ms detect=10ms
restore PE1 P1 at=700ms detect=10ms
flap P2 P4 at=800ms count=3 down=40ms up=60ms detect=5ms jitter=10ms
`

const (
	flapCut     = 300 * sim.Millisecond
	flapHorizon = 1200 * sim.Millisecond
)

var flapRouters = []string{"PE1", "PE2", "P1", "P2", "P3", "P4"}

type flapRig struct {
	b   *core.Backbone
	inj *Injector
}

// buildFlapRig builds PE1 = (P1, P3) = square P1-P2-P4-P3 = (P2, P4) = PE2
// on unit metrics: every PE-to-PE path has equal-cost alternatives, and
// P1-P2 with P3-P4 is a cut.
func buildFlapRig(t testing.TB, shards int) *flapRig {
	t.Helper()
	sc, err := ParseScenario(strings.NewReader(flapScript), "flaps")
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewBackbone(core.Config{Seed: 37, Scheduler: core.SchedHybrid})
	b.AddPE("PE1")
	b.AddPE("PE2")
	for _, p := range flapRouters[2:] {
		b.AddP(p)
	}
	for _, l := range [][2]string{
		{"PE1", "P1"}, {"PE1", "P3"}, {"P1", "P2"}, {"P3", "P4"},
		{"P1", "P3"}, {"P2", "P4"}, {"P2", "PE2"}, {"P4", "PE2"},
	} {
		b.Link(l[0], l[1], 10e6, sim.Millisecond, 1)
	}
	b.BuildProvider()
	b.DefineVPN("acme")
	b.AddSite(core.SiteSpec{VPN: "acme", Name: "hq", PE: "PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.AddSite(core.SiteSpec{VPN: "acme", Name: "branch", PE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	b.ConvergeVPNs()
	b.EnableTelemetry(core.TelemetryOptions{Horizon: flapHorizon, JournalCap: 4096})
	if _, err := b.SetupTELSP("te", "PE2", "PE1", 1e6, -1, rsvp.SetupOptions{}); err != nil {
		t.Fatal(err)
	}
	if shards > 0 {
		if _, err := b.EnableSharding(core.ShardingOptions{Shards: shards, Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		f, err := b.FlowBetween(fmt.Sprintf("f%d", i), "hq", "branch", uint16(5060+i))
		if err != nil {
			t.Fatal(err)
		}
		b.RegisterSource(trafgen.CBR(b.Net, f, 300, 2*sim.Millisecond, sim.Time(i)*137*sim.Microsecond, flapHorizon-50*sim.Millisecond))
	}
	inj := New(b, sc)
	inj.Schedule()
	return &flapRig{b: b, inj: inj}
}

func (r *flapRig) fingerprint() string {
	// StateDigest holds the LDP and LFIB counters, the flows and the
	// telemetry; the net section depends on the shard count, so the packet
	// counters are not in it.
	return r.b.StateDigest() + fmt.Sprintf("net: injected=%d delivered=%d dropped=%d\n",
		r.b.Net.Injected, r.b.Net.Delivered, r.b.Net.Dropped)
}

func (r *flapRig) finish(t testing.TB) string {
	t.Helper()
	r.b.Net.RunUntil(flapHorizon)
	if err := r.b.Net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if len(r.inj.Checker.Violations) != 0 {
		t.Fatalf("invariant violations: %v", r.inj.Checker.Violations)
	}
	return r.fingerprint()
}

// TestSnapshotBetweenLinkFlaps: run to the cut, snapshot, restore onto a
// rebuilt scenario, play the remaining flaps — byte-identical to the
// uninterrupted run, serial and at 8 shards. After the restore LDP still
// writes into the routers' own tables, which is what lets the next delta
// land where the data plane reads.
func TestSnapshotBetweenLinkFlaps(t *testing.T) {
	const fp = "link-flaps"
	for _, shards := range []int{0, 8} {
		whole := buildFlapRig(t, shards)
		want := whole.finish(t)
		if j := whole.b.Telemetry().Journal.Render(); !strings.Contains(j, "link_down") {
			t.Fatalf("shards=%d: the journal records no link failure:\n%s", shards, j)
		}

		cut := buildFlapRig(t, shards)
		cut.b.Net.RunUntil(flapCut)
		if p1, p2 := cut.b.Router("P1").Node, cut.b.Router("P2").Node; cut.b.LDP.Speaker(p1).LFIB.ILMSize() == 0 {
			t.Fatalf("shards=%d: no LDP state at the cut", shards)
		} else if l, _ := cut.b.G.FindLink(p1, p2); !l.Down {
			t.Fatalf("shards=%d: P1-P2 is up at the cut", shards)
		} else if _, ok := cut.b.Router("PE1").FTN.Lookup(cut.b.Router("PE2").Loopback); ok {
			t.Fatalf("shards=%d: PE1 still has an LSP to PE2 across the split", shards)
		}
		noClosures(t, cut.b.E)
		data, err := cut.b.Snapshot(fp)
		if err != nil {
			t.Fatalf("shards=%d snapshot: %v", shards, err)
		}

		resumed := buildFlapRig(t, shards)
		if err := resumed.b.Restore(data, fp); err != nil {
			t.Fatalf("shards=%d restore: %v", shards, err)
		}
		for _, name := range flapRouters {
			rt := resumed.b.Router(name)
			sp := resumed.b.LDP.Speaker(rt.Node)
			if sp.LFIB != rt.LFIB || sp.FTN != rt.FTN {
				t.Fatalf("shards=%d: after Restore LDP's tables at %s are not the router's", shards, name)
			}
		}
		if got := resumed.finish(t); got != want {
			t.Errorf("shards=%d: restored run diverged; first difference:\n%s", shards, firstDiff(want, got))
		}
	}
}
