// TE resilience: failed TE intents re-signal with exponential backoff and
// jitter instead of falling back to LDP permanently, RSVP soft-state
// expires stale LSPs between reconvergences, and a degradation policy
// shrinks or re-pools persistent no-path reservations so the customer
// keeps a (journaled) reduced guarantee until the full one fits again —
// the paper's end-to-end QoS story under failure.
package core

import (
	"fmt"

	"mplsvpn/internal/qos"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
	"mplsvpn/internal/topo"
)

// DegradePolicy selects what a persistently unplaceable TE intent gives up.
type DegradePolicy int

// Degradation policies.
const (
	// DegradeNone keeps retrying the full reservation forever.
	DegradeNone DegradePolicy = iota
	// DegradeShrink halves the requested bandwidth (down to a floor) after
	// repeated failures — less guaranteed rate, same class.
	DegradeShrink
	// DegradeClassPool moves the reservation from the premium DS-TE pool to
	// the global pool — same rate, weaker admission isolation. The packet
	// class (and therefore TE steering) is untouched.
	DegradeClassPool
)

func (p DegradePolicy) String() string {
	switch p {
	case DegradeShrink:
		return "shrink"
	case DegradeClassPool:
		return "classpool"
	default:
		return "none"
	}
}

// Resilience defaults.
const (
	DefaultRetryBase        = 50 * sim.Millisecond
	DefaultRetryMax         = 2 * sim.Second
	DefaultRetryJitter      = 0.1
	DefaultDegradeAfter     = 3
	DefaultShrinkFactor     = 0.5
	DefaultMinBandwidthFrac = 0.25
	DefaultRestoreProbe     = 500 * sim.Millisecond
	DefaultRefreshInterval  = 50 * sim.Millisecond
)

// ResilienceOptions tunes EnableResilience. Zero values select defaults.
type ResilienceOptions struct {
	// RetryBase is the first retry backoff; each consecutive failure
	// doubles it up to RetryMax, plus up to RetryJitter fraction of random
	// jitter so synchronized intents do not re-signal in lockstep.
	RetryBase   sim.Time
	RetryMax    sim.Time
	RetryJitter float64

	// Policy is applied after DegradeAfter consecutive failed attempts.
	Policy       DegradePolicy
	DegradeAfter int
	// ShrinkFactor multiplies the bandwidth per DegradeShrink step;
	// MinBandwidthFrac floors it as a fraction of the full reservation.
	ShrinkFactor     float64
	MinBandwidthFrac float64

	// RestoreProbe is how often degraded intents attempt the full
	// reservation again (<0 disables).
	RestoreProbe sim.Time

	// Refresh is the RSVP soft-state scan period (<0 disables); an Up LSP
	// whose path misses RefreshMisses consecutive scans is expired.
	Refresh       sim.Time
	RefreshMisses int

	// Horizon bounds the pre-scheduled refresh scans and restore probes in
	// virtual time, like TelemetryOptions.Horizon: the engine can still
	// quiesce after it. Retries are not scheduled past it either.
	Horizon sim.Time
}

// resilience is the live retry/degradation state hanging off the backbone.
type resilience struct {
	opt ResilienceOptions
	rng *sim.Rand
}

// EnableResilience switches the TE resilience plane on. Call it before the
// run; Horizon should cover the experiment duration.
func (b *Backbone) EnableResilience(opts ResilienceOptions) {
	if b.res != nil {
		return
	}
	if opts.RetryBase == 0 {
		opts.RetryBase = DefaultRetryBase
	}
	if opts.RetryMax == 0 {
		opts.RetryMax = DefaultRetryMax
	}
	if opts.RetryJitter == 0 {
		opts.RetryJitter = DefaultRetryJitter
	}
	if opts.DegradeAfter == 0 {
		opts.DegradeAfter = DefaultDegradeAfter
	}
	if opts.ShrinkFactor == 0 {
		opts.ShrinkFactor = DefaultShrinkFactor
	}
	if opts.MinBandwidthFrac == 0 {
		opts.MinBandwidthFrac = DefaultMinBandwidthFrac
	}
	if opts.RestoreProbe == 0 {
		opts.RestoreProbe = DefaultRestoreProbe
	}
	if opts.Refresh == 0 {
		opts.Refresh = DefaultRefreshInterval
	}
	if opts.RefreshMisses == 0 {
		opts.RefreshMisses = rsvp.DefaultRefreshMisses
	}
	b.res = &resilience{opt: opts, rng: b.E.Rand().Fork()}
	b.wireRSVPHooks()
	if opts.Horizon > 0 {
		if opts.Refresh > 0 {
			for t := opts.Refresh; t <= opts.Horizon; t += opts.Refresh {
				b.E.After(t, b.refreshScan)
			}
		}
		if opts.RestoreProbe > 0 {
			for t := opts.RestoreProbe; t <= opts.Horizon; t += opts.RestoreProbe {
				b.E.After(t, b.probeRestore)
			}
		}
	}
}

// refreshScan runs one RSVP soft-state round; expired LSPs flow back
// through wireRSVPHooks into the retry queue. On a sharded engine the
// read-only path-liveness probes stripe across the worker pool (the scan
// runs on the global band, where the workers sit idle); the mutating
// commit stays serial in LSP ID order, so the outcome is byte-identical.
func (b *Backbone) refreshScan() {
	if b.RSVP == nil {
		return
	}
	if b.E.Sharded() {
		shards := b.E.NumShards()
		b.RSVP.RefreshScanWith(b.res.opt.RefreshMisses, func(n int, fn func(int)) {
			if n == 0 {
				return
			}
			b.E.RunOnShards(func(shard int) {
				for i := shard; i < n; i += shards {
					fn(i)
				}
			})
		})
		return
	}
	b.RSVP.RefreshScan(b.res.opt.RefreshMisses)
}

// teLost reacts to an involuntary LSP loss (preemption, refresh expiry):
// drop the steering entry so traffic rides the LDP LSP meanwhile, and
// queue a re-signal.
func (b *Backbone) teLost(lspID int) {
	for _, req := range b.teRequests {
		if req.lsp == nil || req.lsp.ID != lspID {
			continue
		}
		req.lsp = nil
		b.routers[req.ingress].DeleteTE(teKeyFor(req))
		b.scheduleRetry(req)
		return
	}
}

// teSignalFailed counts a failed (re-)signal attempt, applies the
// degradation policy once enough attempts have failed, and queues the next
// retry. A no-op without EnableResilience — the intent then stays on its
// LDP fallback until the next reconvergence, the pre-resilience behavior.
func (b *Backbone) teSignalFailed(req *teRequest) {
	r := b.res
	if r == nil {
		return
	}
	req.attempts++
	if r.opt.Policy != DegradeNone && req.attempts >= r.opt.DegradeAfter {
		if b.degradeStep(req) {
			req.attempts = 0
		}
	}
	b.scheduleRetry(req)
}

// scheduleRetry queues one re-signal of req after an exponential backoff
// with jitter. Already-pending or past-horizon retries are skipped.
func (b *Backbone) scheduleRetry(req *teRequest) {
	r := b.res
	if r == nil || req.retryPending {
		return
	}
	shift := req.attempts
	if shift > 16 {
		shift = 16
	}
	backoff := r.opt.RetryBase << uint(shift)
	if backoff > r.opt.RetryMax || backoff <= 0 {
		backoff = r.opt.RetryMax
	}
	delay := backoff + sim.Time(float64(backoff)*r.opt.RetryJitter*r.rng.Float64())
	// The retry trigger is a control-plane message too: under the loss
	// model it can be lost, and the retransmission timeout compounds with
	// the backoff.
	if b.ctrlLoss > 0 && b.ctrlRng != nil && b.ctrlRng.Float64() < b.ctrlLoss {
		b.journal(telemetry.EventCtrlLoss, "lsp:"+req.name,
			fmt.Sprintf("re-signal trigger lost; retransmit adds %v", b.ctrlExtra))
		delay += b.ctrlExtra
	}
	if r.opt.Horizon > 0 && b.E.Now()+delay > r.opt.Horizon {
		b.journal(telemetry.EventTERetry, "lsp:"+req.name,
			"retry horizon reached; waiting for the next reconvergence")
		return
	}
	req.retryPending = true
	b.journal(telemetry.EventTERetry, "lsp:"+req.name,
		fmt.Sprintf("attempt %d in %v", req.attempts+1, delay))
	b.after(delay, timerTERetry, uint64(req.id), 0)
}

// retrySignal attempts one re-signal of req at its current (possibly
// degraded) reservation.
func (b *Backbone) retrySignal(req *teRequest) {
	req.retryPending = false
	if b.RSVP == nil || req.removed {
		return
	}
	if req.lsp != nil && req.lsp.State == rsvp.Up {
		// A reconvergence re-signalled it while we were backing off.
		req.attempts = 0
		return
	}
	l, err := b.RSVP.Setup(req.name, req.ingress, req.egress, req.bandwidth, req.opt)
	if err != nil {
		b.teSignalFailed(req)
		return
	}
	req.lsp = l
	req.attempts = 0
	b.routers[req.ingress].SetTE(teKeyFor(req), l.Entry)
}

// degradeStep applies one step of the configured policy to req, reporting
// whether anything changed (false = already at the floor).
func (b *Backbone) degradeStep(req *teRequest) bool {
	r := b.res
	switch r.opt.Policy {
	case DegradeShrink:
		floor := req.fullBandwidth * r.opt.MinBandwidthFrac
		next := req.bandwidth * r.opt.ShrinkFactor
		if next < floor {
			next = floor
		}
		if next >= req.bandwidth {
			return false
		}
		req.bandwidth = next
		req.degraded = true
		b.journal(telemetry.EventTEDegraded, "lsp:"+req.name,
			fmt.Sprintf("bandwidth shrunk to %.0f b/s (full %.0f)", req.bandwidth, req.fullBandwidth))
		return true
	case DegradeClassPool:
		if req.opt.ClassType == rsvp.CT0 {
			return false
		}
		req.opt.ClassType = rsvp.CT0
		req.degraded = true
		b.journal(telemetry.EventTEDegraded, "lsp:"+req.name,
			"premium pool unavailable; reservation moved to the global pool")
		return true
	}
	return false
}

// probeRestore attempts to lift every degraded-and-up intent back to its
// full reservation.
func (b *Backbone) probeRestore() {
	if b.RSVP == nil {
		return
	}
	for _, req := range b.teRequests {
		if req.degraded && req.lsp != nil && req.lsp.State == rsvp.Up {
			b.tryRestore(req)
		}
	}
}

// tryRestore re-signals req at its full reservation, make-before-break:
// the degraded LSP's reservation is released shared-explicit style around
// the admission decision (rsvp.Resignal), so the degraded reservation can
// never block its own upgrade — the black-hole window of the old
// break-before-make fallback is gone. On failure the degraded LSP stays
// up untouched and the next probe tries again.
func (b *Backbone) tryRestore(req *teRequest) {
	fullOpt := req.opt
	fullOpt.ClassType = req.fullClassType
	if req.lsp != nil && req.lsp.State == rsvp.Up {
		nl, err := b.RSVP.Resignal(req.lsp.ID, req.fullBandwidth, fullOpt)
		if err != nil {
			return // still no room: keep the degraded guarantee
		}
		b.restoreTo(req, nl, fullOpt)
		return
	}
	nl, err := b.RSVP.Setup(req.name, req.ingress, req.egress, req.fullBandwidth, fullOpt)
	if err != nil {
		return
	}
	b.restoreTo(req, nl, fullOpt)
}

// restoreTo commits a successful full re-signal: swap the intent onto nl
// and journal the recovery.
func (b *Backbone) restoreTo(req *teRequest, nl *rsvp.LSP, fullOpt rsvp.SetupOptions) {
	req.lsp = nl
	req.bandwidth = req.fullBandwidth
	req.opt = fullOpt
	req.degraded = false
	req.attempts = 0
	b.routers[req.ingress].SetTE(teKeyFor(req), nl.Entry)
	b.journal(telemetry.EventTERestored, "lsp:"+req.name,
		fmt.Sprintf("full reservation %.0f b/s re-signalled", req.fullBandwidth))
}

// TEIntentStatus is one TE intent's externally visible health.
type TEIntentStatus struct {
	Name          string
	VPN           string
	Ingress       string // ingress PE node name
	Egress        string // egress PE node name
	Class         qos.Class
	State         string // "up", "degraded", or "down" (riding the LDP LSP)
	Bandwidth     float64
	FullBandwidth float64
	Attempts      int
	Path          string
}

// TEIntents reports every TE intent in creation order — the post-scenario
// accounting that proves nothing is silently stuck on LDP fallback.
func (b *Backbone) TEIntents() []TEIntentStatus {
	out := make([]TEIntentStatus, 0, len(b.teRequests))
	for _, req := range b.teRequests {
		st := TEIntentStatus{
			Name: req.name, VPN: req.vpn,
			Ingress: b.G.Name(req.ingress), Egress: b.G.Name(req.egress),
			Class:     req.class,
			Bandwidth: req.bandwidth, FullBandwidth: req.fullBandwidth,
			Attempts: req.attempts,
		}
		switch {
		case req.lsp == nil || req.lsp.State != rsvp.Up:
			st.State = "down"
		case req.degraded:
			st.State = "degraded"
		default:
			st.State = "up"
		}
		if req.lsp != nil && req.lsp.State == rsvp.Up {
			st.Path = b.pathName(req.lsp.Path)
		}
		out = append(out, st)
	}
	return out
}

// pathName renders a path as dash-joined node names.
func (b *Backbone) pathName(p topo.Path) string {
	s := ""
	for i, n := range p.Nodes(b.G) {
		if i > 0 {
			s += "-"
		}
		s += b.G.Name(n)
	}
	return s
}
