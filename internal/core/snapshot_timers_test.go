package core

import (
	"errors"
	"fmt"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
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
	snapshot func(string) ([]byte, error)
	restore  func([]byte, string) error
}

// timerDiamond provisions the rig's topology, VPN, intents and script on b,
// which the caller has created (standalone, or as an InterAS member).
func timerDiamond(t *testing.T, b *Backbone) {
	t.Helper()
	timerTopology(b)
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
	b.At(100*sim.Millisecond, func() {
		if err := b.ReoptimizeTE("te-a", map[topo.LinkID]bool{short.ID: true}); err != nil {
			t.Errorf("reoptimize te-a: %v", err)
		}
	})
	b.At(300*sim.Millisecond, func() { b.FailLink("PE1", "P1", 20*sim.Millisecond) })
	b.At(600*sim.Millisecond, func() { b.RestoreLink("PE1", "P1", 20*sim.Millisecond) })
}

// timerTopology provisions the rig's topology, VPN and two sites on b.
func timerTopology(b *Backbone) {
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
	}
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
	return fingerprint(r.b)
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

// TestSnapshotAfterLateEnable: the periodic scans are control timers
// whenever they start, so a run that switches survivability, the
// resilience plane and telemetry on after it has started checkpoints like
// any other. Cut with all four ticks pending and resumed on a rebuild that
// switches them on before the restore, it ends where the uninterrupted run
// does, serial and at 8 shards.
func TestSnapshotAfterLateEnable(t *testing.T) {
	const enableAt, cut, fp = 130 * sim.Millisecond, 410 * sim.Millisecond, "late-enable"
	build := func(shards int) *Backbone {
		b := NewBackbone(Config{Seed: 67, Scheduler: SchedHybrid, FRR: true})
		timerTopology(b)
		if _, err := b.SetupTELSP("te", "PE1", "PE2", 4e6, -1, rsvp.SetupOptions{}); err != nil {
			t.Fatal(err)
		}
		b.At(300*sim.Millisecond, func() { b.FailLink("PE1", "P1", 20*sim.Millisecond) })
		b.At(600*sim.Millisecond, func() { b.RestoreLink("PE1", "P1", 20*sim.Millisecond) })
		f, err := b.FlowBetween("f", "hq", "branch", 5060)
		if err != nil {
			t.Fatal(err)
		}
		b.RegisterSource(trafgen.CBR(b.Net, f, 300, 2*sim.Millisecond, 0, timerHorizon-50*sim.Millisecond))
		if shards > 0 {
			if _, err := b.EnableSharding(ShardingOptions{Shards: shards, Workers: 2}); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	enable := func(b *Backbone) {
		b.EnableSurvivability(SurvivabilityOptions{Hello: 30 * sim.Millisecond, Horizon: timerHorizon})
		b.EnableResilience(ResilienceOptions{Policy: DegradeShrink, Refresh: 40 * sim.Millisecond,
			RestoreProbe: 70 * sim.Millisecond, Horizon: timerHorizon})
		b.EnableTelemetry(TelemetryOptions{Interval: 50 * sim.Millisecond, Horizon: timerHorizon, JournalCap: 1024})
	}
	ticks := func(b *Backbone) map[uint16]int {
		kinds := map[uint16]int{}
		b.E.WalkPending(func(pe sim.PendingEvent) {
			if ct, ok := pe.Act.(*ctlTimer); ok && ct.kind >= timerHello {
				kinds[ct.kind]++
			}
		})
		return kinds
	}
	for _, shards := range []int{0, 8} {
		b := build(shards)
		b.Net.RunUntil(enableAt)
		enable(b)
		b.Net.RunUntil(cut)
		data, err := b.Snapshot(fp)
		if err != nil {
			t.Fatalf("shards=%d: snapshot: %v", shards, err)
		}
		had := ticks(b)
		if want := "map[5:1 6:1 7:1 8:1]"; fmt.Sprint(had) != want {
			t.Fatalf("shards=%d: ticks pending at the cut %v, want one of each: %s", shards, had, want)
		}
		b.Net.RunUntil(timerHorizon)
		want := fingerprint(b)

		resumed := build(shards)
		enable(resumed)
		if err := resumed.Restore(data, fp); err != nil {
			t.Fatalf("shards=%d: restore: %v", shards, err)
		}
		if got := ticks(resumed); fmt.Sprint(got) != fmt.Sprint(had) {
			t.Fatalf("shards=%d: restored ticks %v, snapshot had %v", shards, got, had)
		}
		resumed.Net.RunUntil(timerHorizon)
		if got := fingerprint(resumed); got != want {
			t.Errorf("shards=%d: resumed run diverged at %s", shards, diffLine(want, got))
		}
	}
}

// TestRestoreRefusesTickWithoutItsPlane: a tick record is checkpoint input
// like any other. One for a plane the rebuild has not switched on, or for
// the inter-AS plane on a standalone backbone, is ErrCorrupt; one whose
// interval is not positive runs once and stops.
func TestRestoreRefusesTickWithoutItsPlane(t *testing.T) {
	b := NewBackbone(Config{Seed: 3, Scheduler: SchedHybrid})
	timerTopology(b)
	tick := func(kind uint16, z uint64) *pendingSet {
		at := b.E.Now() + sim.Second
		return &pendingSet{timers: []pendingTimer{{shard: sim.GlobalBand, at: at, kind: kind, a: uint64(at + 2*sim.Second), z: z}}}
	}
	for kind := timerHello; kind <= timerPeering+1; kind++ {
		if err := tick(kind, uint64(sim.Millisecond)).rearm(b.E, []*Backbone{b}, nil); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("kind %d without its plane: err = %v, want ErrCorrupt", kind, err)
		}
	}
	b.EnableTelemetry(TelemetryOptions{})
	for _, z := range []uint64{0, 1 << 63} {
		b.E.DropPending()
		if err := tick(timerFlowRoll, z).rearm(b.E, []*Backbone{b}, nil); err != nil {
			t.Fatal(err)
		}
		b.E.RunUntil(b.E.Now() + 5*sim.Second)
		if b.E.Pending() != 0 {
			t.Errorf("interval %#x: %d events pending after the tick's first run", z, b.E.Pending())
		}
	}
}
