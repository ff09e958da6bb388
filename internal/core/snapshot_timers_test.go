package core

import (
	"fmt"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

// The control-timer checkpoint boundary: one cut with each of the four
// ctlTimer kinds pending, on a standalone backbone (domain 0) and on the
// second AS of a shared multi-provider engine (domain 2, so the domain bits
// of the encoded kind route the re-arm), serial and at 8 shards.
//
// The rig is a diamond PE1 = (P1 | P2) = PE2 of 5 Mb/s links, P1 the short
// side, with FRR and the TE resilience plane on and three TE intents of 1,
// 3 and 3 Mb/s: te-a and te-b fit the short side, te-c takes the long one.
//
//	100 ms  te-a is re-optimized off PE1->P1, make-before-break: its old
//	        labels drain for LSPDrainDelay                      (timerDrain)
//	300 ms  PE1-P1 fails, detected after 20 ms: FRR activates after
//	        LocalRepairDelay                               (timerLocalRepair)
//	        and the provider reconverges at 320 ms          (timerReconverge)
//	320 ms  7 Mb/s of intents no longer fit the one 5 Mb/s side left: te-c
//	        fails admission and backs off                     (timerTERetry)
//	600 ms  PE1-P1 returns, detected after 20 ms                (timerReconverge)
//	620 ms  the intents that fit move back to the short side, make before
//	        break: the long side's labels drain               (timerDrain)

const timerHorizon = sim.Second

type timerRig struct {
	b        *Backbone
	flows    []*trafgen.Flow
	snapshot func(string) ([]byte, error)
	restore  func([]byte, string) error
}

// timerDiamond provisions the rig's topology, VPN, intents and script on b,
// which the caller has created (standalone, or as an InterAS member).
func timerDiamond(t *testing.T, b *Backbone) {
	t.Helper()
	b.AddPE("PE1")
	b.AddP("P1")
	b.AddP("P2")
	b.AddPE("PE2")
	b.Link("PE1", "P1", 5e6, sim.Millisecond, 1)
	b.Link("P1", "PE2", 5e6, sim.Millisecond, 1)
	b.Link("PE1", "P2", 5e6, sim.Millisecond, 2)
	b.Link("P2", "PE2", 5e6, sim.Millisecond, 2)
	b.BuildProvider()
	b.DefineVPN("acme")
	b.AddSite(SiteSpec{VPN: "acme", Name: "hq", PE: "PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.AddSite(SiteSpec{VPN: "acme", Name: "branch", PE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	b.ConvergeVPNs()
	b.EnableTelemetry(TelemetryOptions{Horizon: timerHorizon, JournalCap: 1024})
	b.EnableResilience(ResilienceOptions{Policy: DegradeNone, RestoreProbe: -1, Refresh: -1, Horizon: timerHorizon})
	for _, te := range []struct {
		name string
		bw   float64
	}{{"te-a", 1e6}, {"te-b", 3e6}, {"te-c", 3e6}} {
		if _, err := b.SetupTELSP(te.name, "PE1", "PE2", te.bw, -1, rsvp.SetupOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	short, _ := b.G.FindLink(b.Router("PE1").Node, b.Router("P1").Node)
	b.E.Schedule(100*sim.Millisecond, func() {
		if err := b.ReoptimizeTE("te-a", map[topo.LinkID]bool{short.ID: true}); err != nil {
			t.Errorf("reoptimize te-a: %v", err)
		}
	})
	b.E.Schedule(300*sim.Millisecond, func() { b.FailLink("PE1", "P1", 20*sim.Millisecond) })
	b.E.Schedule(600*sim.Millisecond, func() { b.RestoreLink("PE1", "P1", 20*sim.Millisecond) })
}

func buildTimerRig(t *testing.T, interAS bool, shards int) *timerRig {
	t.Helper()
	cfg := Config{Seed: 61, Scheduler: SchedHybrid, FRR: true}
	r := &timerRig{}
	sharding := ShardingOptions{Shards: shards, Workers: 2}
	if interAS {
		x := NewInterAS(61, []string{"one", "two"}, []Config{{Scheduler: SchedHybrid}, cfg})
		one := x.AS("one")
		one.AddPE("o-PE1")
		one.AddPE("o-PE2")
		one.Link("o-PE1", "o-PE2", 5e6, sim.Millisecond, 1)
		one.BuildProvider()
		r.b = x.AS("two")
		timerDiamond(t, r.b)
		r.snapshot, r.restore = x.Snapshot, x.Restore
		if shards > 0 {
			if _, err := x.EnableSharding(sharding); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		r.b = NewBackbone(cfg)
		timerDiamond(t, r.b)
		r.snapshot, r.restore = r.b.Snapshot, r.b.Restore
		if shards > 0 {
			if _, err := r.b.EnableSharding(sharding); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 2; i++ {
		f, err := r.b.FlowBetween(fmt.Sprintf("f%d", i), "hq", "branch", uint16(5060+i))
		if err != nil {
			t.Fatal(err)
		}
		r.b.RegisterSource(trafgen.CBR(r.b.Net, f, 300, 2*sim.Millisecond, sim.Time(i)*137*sim.Microsecond, timerHorizon-50*sim.Millisecond))
		r.flows = append(r.flows, f)
	}
	r.b.E.MarkSetup()
	return r
}

// pendingTimers counts the control timers in the engine's heaps, by kind.
func (r *timerRig) pendingTimers() map[uint16]int {
	kinds := map[uint16]int{}
	r.b.E.WalkPending(func(pe sim.PendingEvent) {
		if ct, ok := pe.Act.(*ctlTimer); ok && ct.b == r.b {
			kinds[ct.kind]++
		}
	})
	return kinds
}

func (r *timerRig) finish() string {
	r.b.Net.RunUntil(timerHorizon)
	return fingerprint(r.b, r.flows)
}

func TestSnapshotWithEachControlTimerPending(t *testing.T) {
	cuts := []struct {
		at   sim.Time
		kind uint16
	}{
		{120 * sim.Millisecond, timerDrain},
		{300*sim.Millisecond + 500*sim.Microsecond, timerLocalRepair},
		{310 * sim.Millisecond, timerReconverge},
		{325 * sim.Millisecond, timerTERetry},
		// The restore: between the fault and its reconvergence, and between
		// the make-before-break moves that reconvergence made (resignalTE
		// takes the intents back to the short side) and their drains.
		{610 * sim.Millisecond, timerReconverge},
		{640 * sim.Millisecond, timerDrain},
	}
	const fp = "control-timers"
	for _, interAS := range []bool{false, true} {
		for _, shards := range []int{0, 8} {
			what := fmt.Sprintf("interAS=%v shards=%d", interAS, shards)
			want := buildTimerRig(t, interAS, shards).finish()
			for _, cut := range cuts {
				orig := buildTimerRig(t, interAS, shards)
				orig.b.Net.RunUntil(cut.at)
				if orig.pendingTimers()[cut.kind] == 0 {
					t.Fatalf("%s: no timer of kind %d pending at %v (have %v)", what, cut.kind, cut.at, orig.pendingTimers())
				}
				data, err := orig.snapshot(fp)
				if err != nil {
					t.Fatalf("%s cut %v: snapshot: %v", what, cut.at, err)
				}
				resumed := buildTimerRig(t, interAS, shards)
				if err := resumed.restore(data, fp); err != nil {
					t.Fatalf("%s cut %v: restore: %v", what, cut.at, err)
				}
				if got, had := resumed.pendingTimers(), orig.pendingTimers(); fmt.Sprint(got) != fmt.Sprint(had) {
					t.Fatalf("%s cut %v: restored timers %v, snapshot had %v", what, cut.at, got, had)
				}
				if got := resumed.finish(); got != want {
					t.Errorf("%s cut %v: resumed run diverged at %s", what, cut.at, diffLine(want, got))
				}
			}
		}
	}
}
