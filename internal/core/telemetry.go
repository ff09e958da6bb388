package core

import (
	"fmt"
	"slices"
	"sort"

	"mplsvpn/internal/packet"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
	"mplsvpn/internal/topo"
)

// hotLinkThreshold is the per-interval utilization above which a link
// counts as congested when the SLA watcher computes its avoid set.
const hotLinkThreshold = 0.9

// TelemetryOptions configures the streaming telemetry plane.
type TelemetryOptions struct {
	// Interval is the flow-export / SLA-evaluation period
	// (0 = telemetry.DefaultExportInterval).
	Interval sim.Time
	// JournalCap bounds the event journal (0 = telemetry.DefaultJournalCap).
	JournalCap int
	// Horizon, when positive, runs export ticks at every interval boundary
	// up to this virtual time, so intervals roll even while no traffic is
	// flowing. Without it the exporter rolls lazily on traffic and the
	// engine can still quiesce.
	Horizon sim.Time
	// SLAs, when non-empty, enables the online SLA watcher; a breach
	// re-optimizes the VPN's TE LSPs around its congested links.
	SLAs []telemetry.SLATarget
}

// EnableTelemetry switches the observability plane on: registry counters
// through netsim/qos/device, RSVP events into the journal, flow export and
// SLA watching on the export interval. Works before or after BuildProvider.
// Returns the telemetry bundle for snapshots.
func (b *Backbone) EnableTelemetry(opts TelemetryOptions) *telemetry.Telemetry {
	if b.tel != nil {
		return b.tel
	}
	b.tel = telemetry.New(opts.Interval, opts.JournalCap)
	b.vpnTel = make(map[string]*vpnTel)
	// Telemetry observes every delivery in global time order; deliveries
	// must come back through the barrier stream.
	b.disableLocalDeliver()

	b.Net.EnableTelemetry(b.tel.Reg)
	b.tel.OnSample = b.Net.SampleTelemetry
	b.tel.Flows.OnRoll = b.telRoll

	// Classifiers of already-provisioned sites; later sites bind in AddSite.
	names := b.SiteNames()
	sort.Strings(names)
	for _, n := range names {
		rec := b.sites[n]
		if rec.Spec.Classifier != nil {
			rec.Spec.Classifier.BindTelemetry(b.tel.Reg, "ce-"+n)
		}
	}

	if len(opts.SLAs) > 0 {
		w := telemetry.NewWatcher(opts.SLAs, b.tel.Journal)
		w.OnBreach = func(vpn, _ string) { b.breachReoptimize(vpn) }
		b.tel.Watcher = w
	}

	b.wireRSVPHooks()

	// Per-cause drop counters, pre-resolved so the hook does one array
	// index per drop. The label is the DropReason's stable snake_case name.
	for r := 0; r < packet.NumDropReasons; r++ {
		b.telDropReason[r] = b.tel.Reg.Counter("net_dropped_packets",
			telemetry.Labels{Reason: packet.DropReason(r).String()})
	}

	prevDrop := b.Net.OnDrop
	b.Net.OnDrop = func(at topo.NodeID, p *packet.Packet, reason packet.DropReason) {
		b.telDrop(p)
		if int(reason) < len(b.telDropReason) {
			b.telDropReason[reason].Inc()
		}
		if prevDrop != nil {
			prevDrop(at, p, reason)
		}
	}

	tick(b.E, &ctlTimer{b: b, kind: timerFlowRoll}, b.tel.Flows.Interval, opts.Horizon)
	return b.tel
}

// Telemetry returns the telemetry plane, or nil when not enabled.
func (b *Backbone) Telemetry() *telemetry.Telemetry { return b.tel }

// TelemetrySnapshot freezes the full observability state at the current
// virtual time.
func (b *Backbone) TelemetrySnapshot() *telemetry.Snapshot {
	if b.tel == nil {
		return nil
	}
	return b.tel.Snapshot(b.E.Now())
}

// LSPDrainDelay is how long a make-before-break switchover keeps the old
// path's interior labels installed after the ingress repoints: in-flight
// packets already committed to the old LSP drain through it instead of
// black-holing at the first unbound hop.
const LSPDrainDelay = 50 * sim.Millisecond

// TEResignalStats counts what reconvergences did to the TE intents: how many
// each kept untouched, moved make-before-break, tore down and set up again
// (or set up from nothing), and failed to signal, and how many times every
// intent was re-signalled instead of the dirty ones, by reason — "rebuild"
// after a full reconvergence, or the fallbacks "fit", "explicit", "avoid"
// and "priority" (see teTargets). Process-lifetime observability, not
// checkpointed; the registry's te_resignal_* counters are.
type TEResignalStats struct {
	Reconvergences               int
	Kept, Moved, Resetup, Failed int
	Sweeps                       map[string]int
}

// noteTEResignal accounts one resignalTE pass: into TELast and TE, and —
// when there are intents to speak of — the registry and one journal line.
func (b *Backbone) noteTEResignal(st TEResignalStats, sweep string) {
	if sweep != "" {
		st.Sweeps = map[string]int{sweep: 1}
		if b.TE.Sweeps == nil {
			b.TE.Sweeps = make(map[string]int)
		}
		b.TE.Sweeps[sweep]++
	}
	b.TELast = st
	b.TE.Reconvergences++
	b.TE.Kept += st.Kept
	b.TE.Moved += st.Moved
	b.TE.Resetup += st.Resetup
	b.TE.Failed += st.Failed
	if b.tel == nil || len(b.teRequests) == 0 {
		return
	}
	for _, c := range []struct {
		name string
		n    int
	}{{"te_resignal_kept", st.Kept}, {"te_resignal_moved", st.Moved},
		{"te_resignal_resetup", st.Resetup}, {"te_resignal_failed", st.Failed}} {
		if c.n > 0 {
			b.tel.Reg.Counter(c.name, telemetry.Labels{}).Add(int64(c.n))
		}
	}
	detail := fmt.Sprintf("kept %d moved %d resetup %d failed %d", st.Kept, st.Moved, st.Resetup, st.Failed)
	if sweep != "" {
		b.tel.Reg.Counter("te_resignal_full_sweeps", telemetry.Labels{Reason: sweep}).Inc()
		detail += "; full sweep: " + sweep
	}
	b.journal(telemetry.EventReconverged, "te", detail)
}

// isProvider reports whether n is one of this backbone's P or PE routers.
func (b *Backbone) isProvider(n topo.NodeID) bool {
	scope := b.RSVP.Scope()
	return int(n) < len(scope) && scope[n]
}

// TEScopeViolations lists the Up LSPs — intents' and bypasses' alike — whose
// path visits a node that is not one of this backbone's provider routers. A
// provider tunnel through a customer's router would have labels bound on a
// box the provider does not run; the chaos checker asserts there is none.
func (b *Backbone) TEScopeViolations() []string {
	if b.RSVP == nil {
		return nil
	}
	var out []string
	for _, l := range b.RSVP.LSPs() {
		if l.State == rsvp.Up && slices.ContainsFunc(l.Path.Nodes(b.G), func(n topo.NodeID) bool { return !b.isProvider(n) }) {
			out = append(out, fmt.Sprintf("lsp %d %s via %s", l.ID, l.Name, b.pathName(l.Path)))
		}
	}
	return out
}

// wireRSVPHooks routes RSVP signalling events into the telemetry journal
// and, when resilience is on, into the TE retry queue. Applied at build and
// again whenever telemetry or resilience is enabled: the one RSVP instance
// lives as long as the backbone.
func (b *Backbone) wireRSVPHooks() {
	if b.RSVP == nil {
		return
	}
	b.RSVP.PlainSPF = b.plainSPF
	b.RSVP.Defer = func(id int) { b.after(LSPDrainDelay, timerDrain, uint64(id), 0) }
	if b.tel == nil && b.res == nil {
		return
	}
	b.RSVP.OnEvent = func(e rsvp.Event) {
		if b.tel != nil {
			var kind telemetry.EventKind
			known := true
			switch e.Kind {
			case rsvp.EventSetup:
				kind = telemetry.EventLSPUp
			case rsvp.EventSetupFailed:
				kind = telemetry.EventLSPSetupFailed
			case rsvp.EventTeardown, rsvp.EventRefreshTimeout:
				kind = telemetry.EventLSPDown
			case rsvp.EventPreempted:
				kind = telemetry.EventLSPPreempted
			case rsvp.EventReoptimized:
				kind = telemetry.EventLSPReoptimized
			default:
				known = false
			}
			if known {
				b.tel.Journal.Record(b.E.Now(), kind, "lsp:"+e.Name, e.Detail)
			}
		}
		// An involuntary loss (preemption or soft-state expiry) re-enters the
		// retry queue; deliberate teardowns must not, or every reconvergence
		// would fight itself.
		if b.res != nil && (e.Kind == rsvp.EventPreempted || e.Kind == rsvp.EventRefreshTimeout) {
			b.teLost(e.LSPID)
		}
	}
}

// telRoll closes one export interval: per-link utilization over the interval
// is sampled (the congestion signal for the breach action), then the SLA
// watcher scores the interval.
func (b *Backbone) telRoll(start, end sim.Time) {
	nl := b.G.NumLinks()
	for len(b.telPrevTx) < nl {
		b.telPrevTx = append(b.telPrevTx, 0)
		b.telLastUtil = append(b.telLastUtil, 0)
	}
	secs := (end - start).Seconds()
	for i := 0; i < nl; i++ {
		lid := topo.LinkID(i)
		tx := b.Net.LinkTxBytes(lid)
		u := 0.0
		if secs > 0 {
			u = float64(tx-b.telPrevTx[i]) * 8 / (b.G.Link(lid).Bandwidth * secs)
		}
		b.telLastUtil[i] = u
		b.telPrevTx[i] = tx
	}
	b.tel.Watcher.Eval(end)
}

// hotLinks returns the links whose last-interval utilization reached the
// hot threshold.
func (b *Backbone) hotLinks() map[topo.LinkID]bool {
	hot := make(map[topo.LinkID]bool)
	for i, u := range b.telLastUtil {
		if u >= hotLinkThreshold {
			hot[topo.LinkID(i)] = true
		}
	}
	return hot
}

// breachReoptimize is the SLA breach action: every TE LSP carrying
// the breached VPN whose path crosses a congested link is re-signalled
// make-before-break onto a path avoiding all currently-hot links, and the
// ingress steering entry is repointed. LSPs already clear of hot links are
// left alone — reoptimizing them would not help.
func (b *Backbone) breachReoptimize(vpn string) {
	if b.RSVP == nil {
		return
	}
	hot := b.hotLinks()
	if len(hot) == 0 {
		return
	}
	for _, req := range b.teRequests {
		if req.vpn != vpn && req.vpn != "" {
			continue
		}
		if req.lsp == nil || req.lsp.State != rsvp.Up {
			continue
		}
		crossesHot := false
		for _, lid := range req.lsp.Path.Links {
			if hot[lid] {
				crossesHot = true
				break
			}
		}
		if !crossesHot {
			continue
		}
		nl, err := b.RSVP.ReoptimizeAvoiding(req.lsp.ID, hot)
		if err != nil {
			continue // no cooler path exists; stay put
		}
		req.lsp = nl
		b.routers[req.ingress].SetTE(teKeyFor(req), nl.Entry)
	}
}
