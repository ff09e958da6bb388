package experiments

import (
	"fmt"
	"os"
	"strings"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/chaos"
	"mplsvpn/internal/core"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/stats"
	"mplsvpn/internal/telemetry"
	"mplsvpn/internal/trafgen"
)

// E19 is the day-in-the-life soak: one compressed operational day (1 virtual
// second per hour) of diurnal traffic with flash crowds, a rolling
// graceful-restart maintenance window at night, a fiber cut at the busy
// hour, a damping-worthy control-plane flap storm in the evening, and
// SLA-watcher-driven reoptimization throughout. The MPLS/TE plane runs the
// day through the checkpoint Runner — periodic checkpoints plus three
// process crashes recovered from disk — and must finish with per-class SLA
// conformance AND a state digest identical to an uninterrupted run. The
// PlainIP + IPSec overlay provisioner runs the same day as the paper's
// baseline: no graceful restart, no TE reroute, and (with the inner header
// encrypted) no class visibility.

const (
	e19Hour    = sim.Second
	e19Hours   = 24
	e19Horizon = e19Hours * e19Hour
)

// e19Fingerprint names the checkpoint wire format; Restore refuses a
// snapshot taken under a different fingerprint.
const e19Fingerprint = "e19-day-in-the-life"

// e19BusinessCurve shapes the AF41 transactional load (fraction of the
// 600 pkt/s busy-hour rate) and e19BulkCurve the BE load (fraction of
// 8 Mb/s): business peaks during office hours, bulk backups own the night.
var e19BusinessCurve = [e19Hours]float64{
	0.20, 0.15, 0.10, 0.10, 0.15, 0.30, 0.50, 0.70, 0.90, 1.00, 1.00, 0.95,
	0.90, 0.95, 1.00, 1.00, 0.95, 0.90, 0.80, 0.70, 0.60, 0.50, 0.35, 0.25,
}

var e19BulkCurve = [e19Hours]float64{
	1.10, 1.20, 1.20, 1.10, 1.00, 0.80, 0.60, 0.50, 0.60, 0.70, 0.70, 0.65,
	0.60, 0.65, 0.70, 0.70, 0.75, 0.80, 0.85, 0.80, 0.75, 0.90, 1.00, 1.10,
}

// e19ChaosCommon is the day's fault schedule, shared by both planes: the
// 01:00-04:00 rolling maintenance window restarts every router, the fiber
// on the primary path fails at the 11:18 busy hour, the evening brings two
// PE1 control-plane outages long enough to matter plus a link flap storm.
const e19ChaosCommon = `
crash PE1 at=1200ms detect=20ms
restart PE1 at=1500ms detect=20ms
crash P1 at=2200ms detect=20ms
restart P1 at=2500ms detect=20ms
crash P2 at=3200ms detect=20ms
restart P2 at=3500ms detect=20ms
crash PE2 at=4200ms detect=20ms
restart PE2 at=4500ms detect=20ms
fail PE1 P1 at=11300ms detect=20ms
restore PE1 P1 at=12100ms detect=20ms
crash PE1 at=17s detect=20ms
restart PE1 at=18100ms detect=20ms
crash PE1 at=18400ms detect=20ms
restart PE1 at=19400ms detect=20ms
flap P1 PE2 at=20s count=4 down=60ms up=90ms detect=10ms jitter=20ms
`

// The MPLS plane adds the survivability layer (so maintenance restarts are
// hitless and the evening outages exceed the GR window, charging damping
// penalties) and the checkpoint directives the Runner consumes: three
// process crashes recovered from the checkpoint store.
const e19ChaosMPLS = `survivability hello=20ms hold=3 restart=900ms gr=on
damping penalty=1000 suppress=1600 reuse=1200 halflife=3s
` + e19ChaosCommon + `
ckpt at=8s
ckill+resume at=6s
ckill+resume at=13s
ckill+resume at=21s
`

// E19Result is the soak scorecard.
type E19Result struct {
	Table *stats.Table

	// SLA holds the whole-horizon per-class evaluation per plane
	// ("mpls-te", "overlay-ipsec").
	SLA map[string]map[string]stats.SLAResult
	// Conform reports whether a plane met every class SLA.
	Conform map[string]bool
	// LossPct and P99Ms carry the measured numbers per plane and class.
	LossPct map[string]map[string]float64
	P99Ms   map[string]map[string]float64

	// Checkpoint protocol accounting for the MPLS run.
	Checkpoints int     // checkpoints written
	Cycles      int     // crash/resume cycles completed
	ReplayedMs  float64 // virtual time re-simulated during recoveries
	DigestMatch bool    // recovered run == uninterrupted run

	// Control-plane color for the day.
	Suppressions, Reuses int // damping verdicts on the MPLS plane
	Reoptimized          int // make-before-break reoptimizations journaled
	Violations           int // invariant violations (must be 0)
}

// e19SLAs are the contractual per-class targets over the whole day. The
// transfer class is the closed-loop AIMD backup job: greedy and
// self-throttling, so its contract is a floor on goodput over its midday
// window, not a loss bound (it manufactures its own loss by probing).
func e19SLAs() map[string]stats.SLATarget {
	return map[string]stats.SLATarget{
		"voice":    {Name: "voice", MaxP99Ms: 30, MaxLoss: 0.02},
		"business": {Name: "business", MaxP99Ms: 80, MaxLoss: 0.02},
		"bulk":     {Name: "bulk", MinKbps: 1000},
		"transfer": {Name: "transfer", MinKbps: 100},
	}
}

// e19Classes orders the scored classes everywhere a table is rendered.
var e19Classes = []string{"voice", "business", "bulk", "transfer"}

type e19Rig struct {
	b   *core.Backbone
	tel *telemetry.Telemetry
	fl  map[string]*trafgen.Flow // class name -> flow
	inj *chaos.Injector
}

// e19Build constructs one plane for the day. mpls selects the paper's
// architecture (MPLS VPN + TE LSP + survivability from the scenario);
// otherwise the overlay: PlainIP backbone, ESP tunnel mesh with the ToS
// hidden inside the encryption, hard crash semantics.
func e19Build(mpls bool) (*e19Rig, error) {
	scenario := e19ChaosCommon
	if mpls {
		scenario = e19ChaosMPLS
	}
	sc, err := chaos.ParseScenario(strings.NewReader(scenario), "e19")
	if err != nil {
		return nil, err
	}

	cfg := core.Config{Seed: 190, Scheduler: core.SchedHybrid, PlainIP: !mpls}
	b := core.NewBackbone(cfg)
	b.AddPE("PE1")
	b.AddP("P1")
	b.AddP("P2")
	b.AddPE("PE2")
	b.Link("PE1", "P1", 10e6, sim.Millisecond, 1)
	b.Link("P1", "PE2", 10e6, sim.Millisecond, 1)
	b.Link("PE1", "P2", 10e6, sim.Millisecond, 2)
	b.Link("P2", "PE2", 10e6, sim.Millisecond, 2)
	b.BuildProvider()

	b.DefineVPN("metro")
	b.AddSite(core.SiteSpec{VPN: "metro", Name: "west", PE: "PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.AddSite(core.SiteSpec{VPN: "metro", Name: "east", PE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	b.ConvergeVPNs()

	// The online watcher scores 100 ms intervals all day; a sustained
	// breach reoptimizes the VPN's LSPs away from hot links (MPLS only —
	// the overlay has no LSPs to move).
	tel := b.EnableTelemetry(core.TelemetryOptions{
		Horizon:    e19Horizon + sim.Second,
		JournalCap: 16384,
		SLAs:       []telemetry.SLATarget{{VPN: "metro", MaxP99Ms: 50, MaxLoss: 0.05}},
	})

	if mpls {
		surv := *sc.Surv
		surv.Horizon = e19Horizon + sim.Second
		b.EnableSurvivability(surv)
		b.EnableResilience(core.ResilienceOptions{
			Policy:       core.DegradeShrink,
			RestoreProbe: 250 * sim.Millisecond,
			Horizon:      e19Horizon + sim.Second,
		})
		if _, err := b.SetupTELSPForVPN("te-metro", "PE1", "PE2", "metro", 3e6, -1, rsvp.SetupOptions{}); err != nil {
			return nil, err
		}
	} else {
		// ESP mesh without ToS copy: the backbone sees one opaque class.
		b.BuildIPSecMesh("metro", false)
	}

	voice, err := b.FlowBetween("voice", "west", "east", 5060)
	if err != nil {
		return nil, err
	}
	business, err := b.FlowBetween("business", "west", "east", 443)
	if err != nil {
		return nil, err
	}
	bulk, err := b.FlowBetween("bulk", "west", "east", 80)
	if err != nil {
		return nil, err
	}
	transfer, err := b.FlowBetween("transfer", "west", "east", 8080)
	if err != nil {
		return nil, err
	}
	voice.DSCP = packet.DSCPEF
	business.DSCP = packet.DSCPAF41
	bulk.DSCP = packet.DSCPBestEffort
	transfer.DSCP = packet.DSCPBestEffort

	// Four voice trunks run around the clock, staggered against phase lock.
	for i := 0; i < 4; i++ {
		b.RegisterSource(trafgen.CBR(b.Net, voice, 160, 20*sim.Millisecond,
			sim.Time(i)*5*sim.Millisecond, e19Horizon))
	}
	// One source per hour per class carries the diurnal curve; every source
	// is registered so its pending repost and private random stream ride
	// through checkpoints.
	for h := 0; h < e19Hours; h++ {
		start, stop := sim.Time(h)*e19Hour, sim.Time(h+1)*e19Hour
		if pps := 600 * e19BusinessCurve[h]; pps > 0 {
			b.RegisterSource(trafgen.Poisson(b.Net, business, 400, pps,
				start+sim.Time(h)*17*sim.Microsecond, stop, b.E.Rand().Fork()))
		}
		if bps := 8e6 * e19BulkCurve[h]; bps > 0 {
			interval := sim.Time(float64(1400*8) / bps * float64(sim.Second))
			b.RegisterSource(trafgen.CBR(b.Net, bulk, 1400, interval,
				start+sim.Time(h)*41*sim.Microsecond, stop))
		}
	}
	// The midday backup job is closed-loop: a TCP-Reno-style AIMD source
	// that probes for bandwidth, halves on drops, and collapses on RTO —
	// so the soak exercises feedback traffic whose congestion state
	// (cwnd, ssthresh, ack ledger) must ride through every checkpoint.
	b.AttachAIMD(transfer, 1400, 16*e19Hour).Start(10 * e19Hour)
	// Flash crowds: a mid-morning webcast and an evening event push the
	// offered load past the line rate for half a second each.
	b.RegisterSource(trafgen.Poisson(b.Net, business, 600, 900,
		9300*sim.Millisecond, 9800*sim.Millisecond, b.E.Rand().Fork()))
	b.RegisterSource(trafgen.Poisson(b.Net, business, 600, 900,
		20200*sim.Millisecond, 20700*sim.Millisecond, b.E.Rand().Fork()))

	inj := chaos.New(b, sc)
	inj.Schedule()
	return &e19Rig{
		b: b, tel: tel, inj: inj,
		fl: map[string]*trafgen.Flow{
			"voice": voice, "business": business, "bulk": bulk, "transfer": transfer,
		},
	}, nil
}

// E19DayInTheLife runs the soak. ckptDir receives the MPLS plane's
// checkpoint store ("" = a temporary directory, removed afterwards).
func E19DayInTheLife(ckptDir string) (*E19Result, error) {
	res := &E19Result{
		Table: stats.NewTable("E19 — day-in-the-life soak (24 compressed hours, checkpointed MPLS vs overlay)",
			"plane", "class", "sent", "loss%", "p50ms", "p99ms", "kb/s", "sla"),
		SLA:     map[string]map[string]stats.SLAResult{},
		Conform: map[string]bool{},
		LossPct: map[string]map[string]float64{},
		P99Ms:   map[string]map[string]float64{},
	}
	if ckptDir == "" {
		dir, err := os.MkdirTemp("", "e19-ckpt-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		ckptDir = dir
	}

	// Reference day: the MPLS plane uninterrupted.
	ref, err := e19Build(true)
	if err != nil {
		return nil, err
	}
	ref.b.Net.RunUntil(e19Horizon + sim.Second)
	refDigest := ref.b.StateDigest()

	// The scored day: same plane through the checkpoint Runner — periodic
	// checkpoints, the scripted ones, and three crash recoveries.
	sc, err := chaos.ParseScenario(strings.NewReader(e19ChaosMPLS), "e19")
	if err != nil {
		return nil, err
	}
	var mplsRig *e19Rig
	runner := &chaos.Runner{
		Build: func() (*core.Backbone, error) {
			r, err := e19Build(true)
			if err != nil {
				return nil, err
			}
			mplsRig = r
			return r.b, nil
		},
		Fingerprint:  e19Fingerprint,
		Store:        &snapshot.Store{Dir: ckptDir, Keep: 4},
		Interval:     2 * sim.Second,
		Horizon:      e19Horizon + sim.Second,
		Checkpoints:  sc.Checkpoints,
		CrashResumes: sc.CrashResumes,
	}
	if err := runner.Run(); err != nil {
		return nil, err
	}
	res.Checkpoints = runner.Saved
	res.Cycles = runner.Resumes
	res.ReplayedMs = float64(runner.Replayed) / float64(sim.Millisecond)
	res.DigestMatch = mplsRig.b.StateDigest() == refDigest
	res.Suppressions = mplsRig.b.BGP.RouteSuppressions
	res.Reuses = mplsRig.b.BGP.RouteReuses
	res.Reoptimized = strings.Count(mplsRig.tel.Journal.Render(), "lsp_reoptimized")
	res.Violations = len(mplsRig.inj.Checker.Violations)

	// The baseline day: the overlay provisioner, uninterrupted (it has no
	// checkpoint protocol to exercise — that is part of the point).
	overlay, err := e19Build(false)
	if err != nil {
		return nil, err
	}
	overlay.b.Net.RunUntil(e19Horizon + sim.Second)

	score := func(plane string, rig *e19Rig) {
		res.SLA[plane] = map[string]stats.SLAResult{}
		res.LossPct[plane] = map[string]float64{}
		res.P99Ms[plane] = map[string]float64{}
		pass := true
		for _, class := range e19Classes {
			f := rig.fl[class]
			r := e19SLAs()[class].Evaluate(f.Stats)
			res.SLA[plane][class] = r
			res.LossPct[plane][class] = f.Stats.LossRate() * 100
			res.P99Ms[plane][class] = f.Stats.Latency.Percentile(99)
			pass = pass && r.Pass
			verdict := "pass"
			if !r.Pass {
				verdict = "FAIL " + strings.Join(r.Violations, "; ")
			}
			res.Table.AddRow(plane, class,
				f.Stats.Sent,
				fmt.Sprintf("%.2f", f.Stats.LossRate()*100),
				fmt.Sprintf("%.2f", f.Stats.Latency.Percentile(50)),
				fmt.Sprintf("%.2f", f.Stats.Latency.Percentile(99)),
				fmt.Sprintf("%.0f", f.Stats.ThroughputBps()/1e3),
				verdict)
		}
		res.Conform[plane] = pass
	}
	score("mpls-te", mplsRig)
	score("overlay-ipsec", overlay)
	return res, nil
}

// LocalizeE19Divergence bisects a failed E19 digest gate down to the first
// checkpoint window in which the recovered run left the uninterrupted
// trajectory. Each probe restores the newest checkpoint at or before t,
// replays to t, and compares against a fresh reference run driven to the
// same virtual time — O(log n) partial replays instead of eyeballing a
// whole day of journal. ckptDir must hold the failed run's checkpoint
// store. Returns snapshot.ErrNotViolated when the final probe still
// matches (the divergence healed or lives outside checkpointed time).
func LocalizeE19Divergence(ckptDir string) (snapshot.Window, int, error) {
	store := &snapshot.Store{Dir: ckptDir}
	times, err := store.Times()
	if err != nil {
		return snapshot.Window{}, 0, err
	}
	times = append(times, int64(e19Horizon+sim.Second))
	probe := func(t int64) (bool, error) {
		ref, err := e19Build(true)
		if err != nil {
			return false, err
		}
		ref.b.Net.RunUntil(sim.Time(t))

		_, data, err := store.LatestAtOrBefore(t)
		if err != nil {
			return false, err
		}
		rig, err := e19Build(true)
		if err != nil {
			return false, err
		}
		if err := rig.b.Restore(data, e19Fingerprint); err != nil {
			return false, err
		}
		rig.b.Net.RunUntil(sim.Time(t))
		return rig.b.StateDigest() != ref.b.StateDigest(), nil
	}
	return snapshot.Bisect(times, probe)
}
