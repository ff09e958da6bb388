package intent

import (
	"errors"
	"fmt"
	"sort"

	"mplsvpn/internal/core"
	"mplsvpn/internal/netconf"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
)

// Options tunes the reconciliation loop. All zero values get defaults.
type Options struct {
	// Interval is the periodic scan period.
	Interval sim.Time
	// Horizon, when positive, stops scheduling periodic scans past this
	// virtual time (so a scenario's engine can drain).
	Horizon sim.Time
	// BatchOps caps ops per transactional commit — the rate limit that
	// keeps one giant intent from monopolizing the control plane.
	BatchOps int
	// BatchGap spaces consecutive batches.
	BatchGap sim.Time
	// ValidateGap is the dwell between validate and commit — the window a
	// chaos kill lands in to prove nothing half-applies.
	ValidateGap sim.Time
	// ConfirmDelay is the dwell between commit and confirm — the window
	// where a kill abandons the commit and the server auto-rolls back.
	ConfirmDelay sim.Time
	// ConfirmTimeout is the server-side auto-rollback timer for each
	// confirmed commit. Must exceed ConfirmDelay or every commit rolls back.
	ConfirmTimeout sim.Time
	// MaxAttempts quarantines a subject after this many failures — even
	// retryable errors stop being retried when they persist.
	MaxAttempts int
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 50 * sim.Millisecond
	}
	if o.BatchOps <= 0 {
		o.BatchOps = 64
	}
	if o.BatchGap <= 0 {
		o.BatchGap = 5 * sim.Millisecond
	}
	if o.ValidateGap <= 0 {
		o.ValidateGap = sim.Millisecond
	}
	if o.ConfirmDelay <= 0 {
		o.ConfirmDelay = 2 * sim.Millisecond
	}
	if o.ConfirmTimeout <= 0 {
		o.ConfirmTimeout = 50 * sim.Millisecond
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 8
	}
	return o
}

// Stats counts reconciler activity for scorecards.
type Stats struct {
	Scans       int // diff computations
	Batches     int // successful transactional commits
	OpsApplied  int // ops inside successful commits
	Retries     int // failures classified retryable (op re-emitted)
	Quarantined int // subjects given up on (terminal or out of attempts)
	LockWaits   int // commits deferred because another commit held the lock
}

// Reconciler drives the backbone toward the store's desired state through
// transactional netconf sessions: scan, diff, batch, validate, confirmed
// commit, confirm. It is kill-safe at every point: killing it between
// validate and commit leaves nothing applied, killing it between commit
// and confirm leaves an unconfirmed commit the server auto-rolls back, and
// a restarted reconciler recomputes the diff from scratch and converges to
// the same state an uninterrupted run reaches.
type Reconciler struct {
	Srv   *netconf.Server
	Store *Store
	Opt   Options

	// epoch invalidates every step posted in a previous life: Kill and
	// Restart bump it, and a stale step fires as a no-op.
	epoch    int
	running  bool
	inFlight bool
	sessSeq  int

	// attempts counts failures per op key; quarantine holds the ops given
	// up on (terminal error, or retryable but out of attempts).
	attempts   map[string]int
	quarantine map[string]error

	// managed accumulates every VPN the desired state has ever named, so
	// deleting a spec deprovisions its VPNs instead of orphaning them.
	managed map[string]bool

	Stats Stats

	pendingOps *telemetry.Gauge
	opsTotal   *telemetry.Counter
	batchTotal *telemetry.Counter
	retryTotal *telemetry.Counter
	quarTotal  *telemetry.Counter
}

// NewReconciler builds a reconciler over a session server and a store.
func NewReconciler(srv *netconf.Server, store *Store, opt Options) *Reconciler {
	r := &Reconciler{
		Srv: srv, Store: store, Opt: opt.withDefaults(),
		attempts:   make(map[string]int),
		quarantine: make(map[string]error),
		managed:    make(map[string]bool),
	}
	if tel := srv.B.Telemetry(); tel != nil {
		r.pendingOps = tel.Reg.Gauge("intent_pending_ops", telemetry.Labels{})
		r.opsTotal = tel.Reg.Counter("intent_ops_applied_total", telemetry.Labels{})
		r.batchTotal = tel.Reg.Counter("intent_batches_total", telemetry.Labels{})
		r.retryTotal = tel.Reg.Counter("intent_retries_total", telemetry.Labels{})
		r.quarTotal = tel.Reg.Counter("intent_quarantined_total", telemetry.Labels{})
	}
	return r
}

// Start begins the periodic reconcile loop at the current virtual time.
func (r *Reconciler) Start() {
	if r.running {
		return
	}
	r.running = true
	r.epoch++
	r.post(0, step{periodic: true})
}

// Kill stops the reconciler abruptly — mid-commit, mid-anything. Posted
// steps die on the epoch guard; an unconfirmed commit is left for
// the server's auto-rollback timer, exactly as if the process crashed.
func (r *Reconciler) Kill() error {
	if !r.running {
		return errors.New("intent: reconciler is not running")
	}
	r.running = false
	r.epoch++
	r.inFlight = false
	return nil
}

// Restart brings a killed reconciler back: all transient state (in-flight
// batch, attempt counts) resets and the desired-vs-actual diff is
// recomputed from scratch. Quarantine decisions survive — a terminal op
// does not become applicable by crashing.
func (r *Reconciler) Restart() error {
	if r.running {
		return errors.New("intent: reconciler is already running")
	}
	r.running = true
	r.epoch++
	r.inFlight = false
	r.attempts = make(map[string]int)
	r.post(0, step{periodic: true})
	return nil
}

// Converged reports whether the actual state matches the desired state
// (quarantined subjects excepted) with no batch in flight.
func (r *Reconciler) Converged() bool {
	return !r.inFlight && len(r.Diff()) == 0
}

// Quarantined returns a copy of the subjects given up on, with their errors.
func (r *Reconciler) Quarantined() map[string]error {
	out := make(map[string]error, len(r.quarantine))
	for k, v := range r.quarantine {
		out[k] = v
	}
	return out
}

// Diff returns the ops that would drive actual to desired, quarantined
// subjects filtered out.
func (r *Reconciler) Diff() []netconf.Op {
	ops := r.computeDiff()
	out := ops[:0]
	for _, op := range ops {
		if _, bad := r.quarantine[opKey(op)]; !bad {
			out = append(out, op)
		}
	}
	return out
}

// opKey identifies an op for attempt/quarantine bookkeeping.
func opKey(op netconf.Op) string { return op.Kind.String() + " " + op.Subject() }

// step is one posted continuation of the loop: a scan (sess nil), the
// commit that follows validate, or the confirm that follows commit. No
// checkpoint section owns a step, so a snapshot with one pending refuses it.
type step struct {
	r                 *Reconciler
	epoch             int
	sess              *netconf.Session
	batch             []netconf.Op
	periodic, confirm bool
}

// post books s d from now, in the current epoch.
func (r *Reconciler) post(d sim.Time, s step) {
	s.r, s.epoch = r, r.epoch
	r.Srv.B.E.PostAfter(d, &s)
}

// Run drops a step from an earlier life and runs any other one.
func (s *step) Run() {
	r := s.r
	if s.epoch != r.epoch || !r.running {
		// Killed since: an abandoned validate applied nothing, and an
		// abandoned commit is the server's auto-rollback timer's to undo.
		return
	}
	switch {
	case s.sess == nil:
		r.scan(s.periodic)
	case s.confirm:
		r.confirmStep(s.sess, s.batch)
	default:
		r.commitStep(s.sess, s.batch)
	}
}

// scan is one tick of the loop: recompute the diff and, when idle, launch
// a batch. periodic scans self-reschedule every Interval until Horizon.
func (r *Reconciler) scan(periodic bool) {
	b := r.Srv.B
	if periodic && (r.Opt.Horizon <= 0 || b.E.Now()+r.Opt.Interval <= r.Opt.Horizon) {
		r.post(r.Opt.Interval, step{periodic: true})
	}
	if r.inFlight {
		return
	}
	r.Stats.Scans++
	ops := r.Diff()
	r.pendingOps.Set(float64(len(ops)))
	if len(ops) == 0 {
		return
	}
	if len(ops) > r.Opt.BatchOps {
		ops = ops[:r.Opt.BatchOps]
	}
	r.startBatch(ops)
}

// startBatch runs one transactional commit cycle for a batch of ops.
func (r *Reconciler) startBatch(batch []netconf.Op) {
	r.inFlight = true
	r.sessSeq++
	sess, err := r.Srv.Open(fmt.Sprintf("reconciler-%d-%d", r.epoch, r.sessSeq))
	if err != nil {
		// Session IDs are unique per epoch+seq; this cannot happen short of
		// a bug. Fail the batch; the next scan retries.
		r.inFlight = false
		return
	}
	sess.Stage(batch...)

	// Validate-weed loop: drop ops that fail validation (classifying each)
	// and retry the remainder, so one bad op cannot starve a batch.
	for {
		verr := sess.Validate()
		if verr == nil {
			break
		}
		var ce *netconf.CommitError
		if !errors.As(verr, &ce) {
			sess.Close()
			r.inFlight = false
			return
		}
		r.classifyFailure(ce.Op, ce.Cause)
		batch = append(batch[:ce.Index], batch[ce.Index+1:]...)
		sess.Discard()
		if len(batch) == 0 {
			sess.Close()
			r.inFlight = false
			return
		}
		sess.Stage(batch...)
	}

	r.post(r.Opt.ValidateGap, step{sess: sess, batch: batch})
}

func (r *Reconciler) commitStep(sess *netconf.Session, batch []netconf.Op) {
	err := sess.CommitConfirmed(r.Opt.ConfirmTimeout)
	switch {
	case err == nil:
		r.post(r.Opt.ConfirmDelay, step{sess: sess, batch: batch, confirm: true})
	case errors.Is(err, netconf.ErrCommitInProgress):
		// Another session (a prior life's unconfirmed commit, an operator)
		// holds the lock; back off and let the next scan retry.
		r.Stats.LockWaits++
		sess.Close()
		r.inFlight = false
	default:
		var ce *netconf.CommitError
		if errors.As(err, &ce) {
			r.classifyFailure(ce.Op, ce.Cause)
		}
		sess.Close()
		r.inFlight = false
		r.post(r.Opt.BatchGap, step{})
	}
}

func (r *Reconciler) confirmStep(sess *netconf.Session, batch []netconf.Op) {
	if err := sess.Confirm(); err != nil {
		// The auto-rollback timer beat us (ConfirmTimeout < ConfirmDelay is
		// a misconfiguration): the batch is gone; rescan re-emits it.
		sess.Close()
		r.inFlight = false
		return
	}
	sess.Close()
	r.Stats.Batches++
	r.Stats.OpsApplied += len(batch)
	r.batchTotal.Inc()
	r.opsTotal.Add(int64(len(batch)))
	for _, op := range batch {
		delete(r.attempts, opKey(op))
	}
	r.inFlight = false
	r.post(r.Opt.BatchGap, step{})
}

// classifyFailure routes a failed op: retryable errors (and ordering-
// sensitive undefines) are re-emitted by later diffs up to MaxAttempts;
// terminal errors quarantine the op immediately. This is where the typed
// core.ProvisionError codes pay off — no string matching.
func (r *Reconciler) classifyFailure(op netconf.Op, cause error) {
	key := opKey(op)
	r.attempts[key]++
	retryable := core.Retryable(cause) ||
		op.Kind == netconf.OpUndefineVPN // waits for its sites/tunnels to go first
	if retryable && r.attempts[key] < r.Opt.MaxAttempts {
		r.Stats.Retries++
		r.retryTotal.Inc()
		return
	}
	r.quarantine[key] = cause
	r.Stats.Quarantined++
	r.quarTotal.Inc()
	if tel := r.Srv.B.Telemetry(); tel != nil {
		tel.Journal.Record(r.Srv.B.E.Now(), telemetry.EventIntentQuarantine,
			op.Subject(), fmt.Sprintf("%s: %v", op.Kind, cause))
	}
}

// ---------------------------------------------------------------------------
// Diffing

// computeDiff compares the store's desired state with the backbone's
// actual state and emits the ops that close the gap, in deterministic
// order: deprovision unmanaged VPNs first, then per desired VPN (sorted)
// define/SLA, site removals, site adds (and reshape remove+add pairs),
// tunnel teardowns, tunnel setups.
func (r *Reconciler) computeDiff() []netconf.Op {
	b := r.Srv.B
	desired := r.Store.Desired()
	desiredVPN := make(map[string]bool, len(desired))
	for _, vs := range desired {
		desiredVPN[vs.Name] = true
		r.managed[vs.Name] = true
	}

	// Actual sites and tunnels, grouped by VPN.
	actualSites := make(map[string][]core.SiteSpec) // vpn -> specs
	for _, name := range b.SiteNames() {
		spec, _ := b.SiteSpecOf(name)
		actualSites[spec.VPN] = append(actualSites[spec.VPN], spec)
	}
	for _, specs := range actualSites {
		sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	}
	actualTunnels := make(map[string]core.TEIntentStatus) // name -> status
	tunnelsByVPN := make(map[string][]string)
	for _, st := range b.TEIntents() {
		actualTunnels[st.Name] = st
		tunnelsByVPN[st.VPN] = append(tunnelsByVPN[st.VPN], st.Name)
	}
	for _, names := range tunnelsByVPN {
		sort.Strings(names)
	}

	var ops []netconf.Op

	// Managed VPNs that left the desired state: deprovision fully.
	var orphans []string
	for vpn := range r.managed {
		if !desiredVPN[vpn] {
			if !b.HasVPN(vpn) {
				delete(r.managed, vpn)
				continue
			}
			orphans = append(orphans, vpn)
		}
	}
	sort.Strings(orphans)
	for _, vpn := range orphans {
		for _, tn := range tunnelsByVPN[vpn] {
			ops = append(ops, netconf.Op{Kind: netconf.OpTeardownTunnel, Name: tn})
		}
		for _, s := range actualSites[vpn] {
			ops = append(ops, netconf.Op{Kind: netconf.OpRemoveSite, Name: s.Name})
		}
		ops = append(ops, netconf.Op{Kind: netconf.OpUndefineVPN, VPN: vpn})
	}

	for _, vs := range desired { // already sorted by name
		if !b.HasVPN(vs.Name) {
			ops = append(ops, netconf.Op{Kind: netconf.OpDefineVPN, VPN: vs.Name})
			if vs.SLA >= 0 {
				ops = append(ops, netconf.Op{Kind: netconf.OpSetVPNSLA, VPN: vs.Name, SLA: vs.SLA})
			}
		} else if sla, _ := b.VPNSLA(vs.Name); sla != vs.SLA {
			ops = append(ops, netconf.Op{Kind: netconf.OpSetVPNSLA, VPN: vs.Name, SLA: vs.SLA})
		}

		desiredSite := make(map[string]bool, len(vs.Sites))
		for _, s := range vs.Sites {
			desiredSite[s.Name] = true
		}
		for _, s := range actualSites[vs.Name] {
			if !desiredSite[s.Name] {
				ops = append(ops, netconf.Op{Kind: netconf.OpRemoveSite, Name: s.Name})
			}
		}
		sites := append([]core.SiteSpec(nil), vs.Sites...)
		sort.Slice(sites, func(i, j int) bool { return sites[i].Name < sites[j].Name })
		for _, want := range sites {
			want = normalizeSite(want)
			got, ok := b.SiteSpecOf(want.Name)
			if !ok {
				ops = append(ops, netconf.Op{Kind: netconf.OpAddSite, Site: want})
				continue
			}
			if siteEqual(normalizeSite(got), want) {
				continue
			}
			// Reshape: service attributes (VPN, shaping) can change via
			// remove+revive; a different physical skeleton cannot.
			ops = append(ops,
				netconf.Op{Kind: netconf.OpRemoveSite, Name: want.Name},
				netconf.Op{Kind: netconf.OpAddSite, Site: want})
		}

		desiredTunnel := make(map[string]bool, len(vs.Tunnels))
		for _, t := range vs.Tunnels {
			desiredTunnel[t.Name] = true
		}
		for _, tn := range tunnelsByVPN[vs.Name] {
			if !desiredTunnel[tn] {
				ops = append(ops, netconf.Op{Kind: netconf.OpTeardownTunnel, Name: tn})
			}
		}
		tunnels := append([]netconf.TunnelSpec(nil), vs.Tunnels...)
		sort.Slice(tunnels, func(i, j int) bool { return tunnels[i].Name < tunnels[j].Name })
		for _, want := range tunnels {
			got, ok := actualTunnels[want.Name]
			if !ok {
				ops = append(ops, netconf.Op{Kind: netconf.OpSetupTunnel, Tunnel: want})
				continue
			}
			if got.VPN == want.VPN && got.Ingress == want.Ingress && got.Egress == want.Egress &&
				got.Class == want.Class && got.FullBandwidth == want.Bandwidth {
				continue
			}
			ops = append(ops,
				netconf.Op{Kind: netconf.OpTeardownTunnel, Name: want.Name},
				netconf.Op{Kind: netconf.OpSetupTunnel, Tunnel: want})
		}
	}
	return ops
}

// normalizeSite fills the defaults AddSite would apply, so desired and
// actual specs compare on equal footing.
func normalizeSite(s core.SiteSpec) core.SiteSpec {
	if s.AccessBw == 0 {
		s.AccessBw = 100e6
	}
	if s.AccessDelay == 0 {
		s.AccessDelay = sim.Millisecond
	}
	if s.Hosts > 0 && s.LANBw == 0 {
		s.LANBw = 1e9
	}
	return s
}

// siteEqual compares the fields the intent language can express
// (Classifier is deliberately ignored — it is not declarable).
func siteEqual(a, b core.SiteSpec) bool {
	if a.VPN != b.VPN || a.PE != b.PE || a.BackupPE != b.BackupPE ||
		a.AccessBw != b.AccessBw || a.AccessDelay != b.AccessDelay ||
		a.ShapeRate != b.ShapeRate || a.Hosts != b.Hosts || a.LANBw != b.LANBw ||
		len(a.Prefixes) != len(b.Prefixes) {
		return false
	}
	for i := range a.Prefixes {
		if a.Prefixes[i] != b.Prefixes[i] {
			return false
		}
	}
	return true
}
