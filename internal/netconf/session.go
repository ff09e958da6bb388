package netconf

import (
	"errors"
	"fmt"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/core"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
)

// Session-layer sentinel errors.
var (
	// ErrDuplicateSession rejects opening a session ID that is already open.
	ErrDuplicateSession = errors.New("netconf: session ID already open")
	// ErrStaleSession rejects reusing the ID of a closed session: a client
	// reconnecting after a crash must open a fresh identity, not impersonate
	// its dead predecessor (whose pending confirm may have rolled back).
	ErrStaleSession = errors.New("netconf: stale session ID (already closed)")
	// ErrSessionClosed rejects operations on a closed session.
	ErrSessionClosed = errors.New("netconf: session is closed")
	// ErrCommitInProgress rejects a commit while another session's confirmed
	// commit is still awaiting its confirm — the global commit lock.
	ErrCommitInProgress = errors.New("netconf: another commit is awaiting confirmation")
	// ErrNoPendingConfirm rejects Confirm with nothing outstanding.
	ErrNoPendingConfirm = errors.New("netconf: no confirmed commit is pending")
)

// OpKind selects a provisioning operation.
type OpKind uint8

// Provisioning operation kinds.
const (
	OpDefineVPN OpKind = iota
	OpSetVPNSLA
	OpAddSite
	OpRemoveSite
	OpSetupTunnel
	OpTeardownTunnel
	OpUndefineVPN
)

var opKindNames = [...]string{"define-vpn", "set-vpn-sla", "add-site", "remove-site",
	"setup-tunnel", "teardown-tunnel", "undefine-vpn"}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// TunnelSpec describes one TE tunnel intent.
type TunnelSpec struct {
	Name      string
	Ingress   string // ingress PE node name
	Egress    string // egress PE node name
	VPN       string // "" steers every VPN
	Bandwidth float64
	Class     qos.Class // -1 = all classes
}

// Op is one staged provisioning operation. Which fields matter depends on
// Kind: VPN ops use VPN (and SLA), site ops use Site or Name, tunnel ops
// use Tunnel or Name.
type Op struct {
	Kind   OpKind
	VPN    string        // OpDefineVPN / OpSetVPNSLA / OpUndefineVPN
	SLA    qos.Class     // OpSetVPNSLA
	Site   core.SiteSpec // OpAddSite
	Name   string        // OpRemoveSite / OpTeardownTunnel
	Tunnel TunnelSpec    // OpSetupTunnel

	// prior, on the OpDefineVPN that undoes an OpUndefineVPN, is the VPN
	// as it was: the define re-creates its route targets and SLA.
	prior *vpnState
}

// vpnState is what an undefined VPN took with it.
type vpnState struct {
	imports, exports []addr.RouteTarget
	sla              qos.Class
}

// Subject renders the op's target as a journal subject ("vpn:acme",
// "site:hq", "lsp:gold") — the key the reconciler dedupes and retries on.
func (o Op) Subject() string {
	switch o.Kind {
	case OpDefineVPN, OpSetVPNSLA, OpUndefineVPN:
		return "vpn:" + o.VPN
	case OpAddSite:
		return "site:" + o.Site.Name
	case OpRemoveSite:
		return "site:" + o.Name
	case OpSetupTunnel:
		return "lsp:" + o.Tunnel.Name
	case OpTeardownTunnel:
		return "lsp:" + o.Name
	}
	return "op:?"
}

func (o Op) String() string { return o.Kind.String() + " " + o.Subject() }

// CommitError reports which staged op a validate or commit failed on.
type CommitError struct {
	Index int // position in the staged batch
	Op    Op
	Cause error
}

func (e *CommitError) Error() string {
	return fmt.Sprintf("netconf: op %d (%s): %v", e.Index, e.Op, e.Cause)
}

// Unwrap exposes the cause so core.Retryable / errors.Is classify through.
func (e *CommitError) Unwrap() error { return e.Cause }

// Server owns the session registry and the global commit lock for one
// backbone.
type Server struct {
	B *core.Backbone

	sessions map[string]*Session
	closed   map[string]bool
	// inConfirm holds the session whose confirmed commit is pending; while
	// set, every other commit is refused (the candidate datastore is
	// locked, in NETCONF terms).
	inConfirm *Session

	// Counters for scorecards.
	Commits     int // successful commits (plain + confirmed)
	Rollbacks   int // explicit, failure-triggered, and auto-rollbacks
	OpsApplied  int // ops successfully applied inside commits
	AutoRolled  int // subset of Rollbacks fired by the confirm timer
	Convergence int // ConvergeVPNs invocations (the batching metric)
}

// NewServer creates a session server over a backbone.
func NewServer(b *core.Backbone) *Server {
	return &Server{B: b, sessions: make(map[string]*Session), closed: make(map[string]bool)}
}

// Open starts a session. Duplicate IDs (already open) and stale IDs
// (closed earlier) are refused with distinct errors.
func (s *Server) Open(id string) (*Session, error) {
	if _, dup := s.sessions[id]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateSession, id)
	}
	if s.closed[id] {
		return nil, fmt.Errorf("%w: %q", ErrStaleSession, id)
	}
	sess := &Session{srv: s, ID: id}
	s.sessions[id] = sess
	return sess, nil
}

// journal records an intent event when telemetry is on.
func (s *Server) journal(kind telemetry.EventKind, subject, detail string) {
	if tel := s.B.Telemetry(); tel != nil {
		tel.Journal.Record(s.B.E.Now(), kind, subject, detail)
	}
}

// converge runs one BGP convergence and counts it.
func (s *Server) converge() {
	s.B.ConvergeVPNs()
	s.Convergence++
}

// Session is one client's transactional channel: a candidate batch of
// staged ops plus the undo state of its last unconfirmed commit.
type Session struct {
	srv *Server
	ID  string

	staged []Op
	closed bool

	// Confirmed-commit state: the inverse of each op of the applied batch,
	// in apply order, valid while awaitingConfirm. confirmSeq guards the
	// auto-rollback timer — bumping it orphans any timer already posted.
	undo            []Op
	awaitingConfirm bool
	confirmSeq      int
}

// Stage appends ops to the candidate configuration.
func (s *Session) Stage(ops ...Op) error {
	if s.closed {
		return ErrSessionClosed
	}
	s.staged = append(s.staged, ops...)
	return nil
}

// Discard drops the candidate configuration (NETCONF discard-changes),
// leaving the session open for a fresh Stage.
func (s *Session) Discard() error {
	if s.closed {
		return ErrSessionClosed
	}
	s.staged = nil
	return nil
}

// Validate dry-runs the candidate against the running state plus the
// staged prefix: name collisions, unknown references, skeleton
// incompatibilities, and ordering errors surface here without touching
// the backbone. Resource admission (TE path placement) cannot be
// validated without applying — those failures surface at Commit as
// retryable errors.
func (s *Session) Validate() error {
	if s.closed {
		return ErrSessionClosed
	}
	v := newValidateView(s.srv.B)
	for i, op := range s.staged {
		if err := v.check(op); err != nil {
			return &CommitError{Index: i, Op: op, Cause: err}
		}
	}
	return nil
}

// Commit validates and applies the candidate atomically: on any failure
// the applied prefix is rolled back in reverse order and the error
// returned; on success the batch is final. One convergence runs either way.
func (s *Session) Commit() error {
	return s.commit(0)
}

// CommitConfirmed is Commit with a confirmation requirement: the batch
// applies, but unless Confirm is called within timeout, it is rolled back
// automatically (RFC 6241 confirmed commit). The global commit lock is
// held until Confirm, auto-rollback, or Close.
func (s *Session) CommitConfirmed(timeout sim.Time) error {
	if timeout <= 0 {
		return fmt.Errorf("netconf: confirm timeout must be positive")
	}
	return s.commit(timeout)
}

func (s *Session) commit(confirmTimeout sim.Time) error {
	if s.closed {
		return ErrSessionClosed
	}
	if s.srv.inConfirm != nil {
		return fmt.Errorf("%w (session %q)", ErrCommitInProgress, s.srv.inConfirm.ID)
	}
	if err := s.Validate(); err != nil {
		return err
	}
	b := s.srv.B
	var undo []Op
	for i, op := range s.staged {
		inv, err := applyOp(b, op)
		if err != nil {
			// Undo the applied prefix; the batch never happened.
			s.rollback(undo, op.Subject(),
				fmt.Sprintf("commit failed at op %d/%d: %v", i+1, len(s.staged), err))
			return &CommitError{Index: i, Op: op, Cause: err}
		}
		undo = append(undo, inv)
		s.srv.OpsApplied++
	}
	n := len(s.staged)
	s.staged = nil
	s.srv.Commits++
	s.srv.converge()
	s.srv.journal(telemetry.EventIntentCommit, "session:"+s.ID,
		fmt.Sprintf("%d ops committed", n))
	if confirmTimeout > 0 {
		s.undo = undo
		s.awaitingConfirm = true
		s.srv.inConfirm = s
		b.E.PostAfter(confirmTimeout, &confirmTimer{s: s, seq: s.confirmSeq})
	}
	return nil
}

// confirmTimer is a confirmed commit's auto-rollback, posted for the
// session's confirmSeq at commit time: it rolls the batch back unless a
// Confirm or Close bumped the seq first.
type confirmTimer struct {
	s   *Session
	seq int
}

func (t *confirmTimer) Run() {
	if s := t.s; s.awaitingConfirm && s.confirmSeq == t.seq {
		s.srv.AutoRolled++
		s.doRollback("confirm timeout expired")
	}
}

// Confirm accepts the pending confirmed commit: the undo state is
// discarded and the commit lock released.
func (s *Session) Confirm() error {
	if s.closed {
		return ErrSessionClosed
	}
	if !s.awaitingConfirm {
		return ErrNoPendingConfirm
	}
	s.confirmSeq++ // orphan the auto-rollback timer
	s.awaitingConfirm = false
	s.undo = nil
	s.srv.inConfirm = nil
	return nil
}

// doRollback reverses the pending batch and releases the commit lock.
func (s *Session) doRollback(why string) {
	s.confirmSeq++
	s.awaitingConfirm = false
	undo := s.undo
	s.undo = nil
	if s.srv.inConfirm == s {
		s.srv.inConfirm = nil
	}
	s.rollback(undo, "session:"+s.ID, fmt.Sprintf("%d ops rolled back: %s", len(undo), why))
}

// rollback applies the inverses of an applied batch in reverse order,
// converges once and journals the rollback.
func (s *Session) rollback(undo []Op, subject, detail string) {
	for j := len(undo) - 1; j >= 0; j-- {
		// Nothing is left to undo a failed inverse; the rest still apply.
		_, _ = applyOp(s.srv.B, undo[j])
	}
	s.srv.Rollbacks++
	s.srv.converge()
	s.srv.journal(telemetry.EventIntentRollback, subject, detail)
}

// Close ends the session. A pending confirmed commit rolls back
// immediately — the client died without confirming, which is exactly the
// failure the confirmed-commit contract protects against. The ID becomes
// stale and cannot be reopened.
func (s *Session) Close() error {
	if s.closed {
		return ErrSessionClosed
	}
	if s.awaitingConfirm {
		s.doRollback("session closed before confirm")
	}
	s.closed = true
	s.staged = nil
	delete(s.srv.sessions, s.ID)
	s.srv.closed[s.ID] = true
	return nil
}

// ---------------------------------------------------------------------------
// Apply

// applyOp applies one op to the backbone and returns its inverse: the op
// that, applied here in turn, puts back what this one changed. A core
// precondition panic comes back as its error, keeping the typed
// *core.ProvisionError for retryable-vs-terminal classification.
func applyOp(b *core.Backbone, op Op) (inverse Op, err error) {
	defer recovered(&err)
	switch op.Kind {
	case OpDefineVPN:
		if p := op.prior; p != nil {
			b.DefineVPNWithRTs(op.VPN, p.imports, p.exports)
			b.SetVPNSLA(op.VPN, p.sla)
		} else {
			b.DefineVPN(op.VPN)
		}
		return Op{Kind: OpUndefineVPN, VPN: op.VPN}, nil
	case OpSetVPNSLA:
		prev, _ := b.VPNSLA(op.VPN)
		b.SetVPNSLA(op.VPN, op.SLA)
		return Op{Kind: OpSetVPNSLA, VPN: op.VPN, SLA: prev}, nil
	case OpAddSite:
		b.AddSite(op.Site)
		return Op{Kind: OpRemoveSite, Name: op.Site.Name}, nil
	case OpRemoveSite:
		spec, _ := b.SiteSpecOf(op.Name)
		return Op{Kind: OpAddSite, Site: spec}, b.RemoveSite(op.Name)
	case OpSetupTunnel:
		t := op.Tunnel
		_, err = b.SetupTELSPForVPN(t.Name, t.Ingress, t.Egress, t.VPN, t.Bandwidth, t.Class, rsvp.SetupOptions{})
		return Op{Kind: OpTeardownTunnel, Name: t.Name}, err
	case OpTeardownTunnel:
		inv := Op{Kind: OpSetupTunnel}
		for _, st := range b.TEIntents() {
			if st.Name == op.Name {
				inv.Tunnel = TunnelSpec{Name: st.Name, Ingress: st.Ingress, Egress: st.Egress,
					VPN: st.VPN, Bandwidth: st.FullBandwidth, Class: st.Class}
			}
		}
		return inv, b.TeardownTE(op.Name)
	case OpUndefineVPN:
		imports, exports, _ := b.VPNRTs(op.VPN)
		sla, _ := b.VPNSLA(op.VPN)
		return Op{Kind: OpDefineVPN, VPN: op.VPN, prior: &vpnState{imports, exports, sla}}, b.UndefineVPN(op.VPN)
	}
	return Op{}, fmt.Errorf("netconf: unknown op kind %d", op.Kind)
}

// recovered, deferred, turns a core-API panic into *err, keeping an error
// panic value (the typed ProvisionError) intact.
func recovered(err *error) {
	if r := recover(); r != nil {
		if e, ok := r.(error); ok {
			*err = e
		} else {
			*err = fmt.Errorf("%v", r)
		}
	}
}

// capture runs fn, returning a core-API panic as its error.
func capture(fn func()) (err error) {
	defer recovered(&err)
	fn()
	return nil
}

// ---------------------------------------------------------------------------
// Validation view

// validateView is the dry-run state a candidate batch is checked against:
// the running configuration overlaid with the effects of the already-
// checked staged prefix.
type validateView struct {
	b       *core.Backbone
	vpns    map[string]bool
	sites   map[string]string // site -> vpn
	tunnels map[string]string // tunnel -> vpn
}

func newValidateView(b *core.Backbone) *validateView {
	v := &validateView{
		b:       b,
		vpns:    make(map[string]bool),
		sites:   make(map[string]string),
		tunnels: make(map[string]string),
	}
	for _, n := range b.VPNNames() {
		v.vpns[n] = true
	}
	for _, n := range b.SiteNames() {
		spec, _ := b.SiteSpecOf(n)
		v.sites[n] = spec.VPN
	}
	for _, st := range b.TEIntents() {
		v.tunnels[st.Name] = st.VPN
	}
	return v
}

// refuse is a refusal netconf makes before core would make the same one:
// core's code, subject and message, so core.CodeOf classifies it alike.
func refuse(code core.ProvisionCode, subject, format string, args ...any) error {
	return &core.ProvisionError{Code: code, Subject: subject, Detail: "core: " + fmt.Sprintf(format, args...)}
}

func (v *validateView) check(op Op) error {
	switch op.Kind {
	case OpDefineVPN:
		if op.VPN == "" {
			return fmt.Errorf("netconf: VPN needs a name")
		}
		if v.vpns[op.VPN] {
			return refuse(core.ProvDuplicateVPN, "vpn:"+op.VPN, "VPN %q already defined", op.VPN)
		}
		v.vpns[op.VPN] = true
	case OpSetVPNSLA:
		if !v.vpns[op.VPN] {
			return refuse(core.ProvUnknownVPN, "vpn:"+op.VPN, "VPN %q not defined", op.VPN)
		}
	case OpAddSite:
		spec := op.Site
		if spec.Name == "" || spec.VPN == "" {
			return fmt.Errorf("netconf: site needs both a name and a VPN")
		}
		if !v.vpns[spec.VPN] {
			return refuse(core.ProvUnknownVPN, "vpn:"+spec.VPN, "VPN %q not defined", spec.VPN)
		}
		if _, dup := v.sites[spec.Name]; dup {
			return refuse(core.ProvDuplicateSite, "site:"+spec.Name, "site %q already provisioned", spec.Name)
		}
		if len(spec.Prefixes) == 0 {
			return fmt.Errorf("netconf: site %q has no prefixes", spec.Name)
		}
		if err := v.pe("", spec.PE); err != nil {
			return err
		}
		if spec.BackupPE != "" {
			if err := v.pe("backup ", spec.BackupPE); err != nil {
				return err
			}
		}
		if err := v.b.SkeletonCompatibleSpec(spec); err != nil {
			return err
		}
		v.sites[spec.Name] = spec.VPN
	case OpRemoveSite:
		if _, ok := v.sites[op.Name]; !ok {
			return refuse(core.ProvUnknownSite, "site:"+op.Name, "unknown site %q", op.Name)
		}
		delete(v.sites, op.Name)
	case OpSetupTunnel:
		t := op.Tunnel
		if t.Name == "" {
			return fmt.Errorf("netconf: tunnel needs a name")
		}
		if _, dup := v.tunnels[t.Name]; dup {
			return refuse(core.ProvDuplicateTE, "lsp:"+t.Name, "TE intent %q already exists", t.Name)
		}
		if t.VPN != "" && !v.vpns[t.VPN] {
			return refuse(core.ProvUnknownVPN, "vpn:"+t.VPN, "VPN %q not defined", t.VPN)
		}
		if err := v.pe("", t.Ingress); err != nil {
			return err
		}
		if err := v.pe("", t.Egress); err != nil {
			return err
		}
		if t.Bandwidth <= 0 {
			return fmt.Errorf("netconf: tunnel %q needs positive bandwidth", t.Name)
		}
		v.tunnels[t.Name] = t.VPN
	case OpTeardownTunnel:
		if _, ok := v.tunnels[op.Name]; !ok {
			return refuse(core.ProvUnknownTE, "lsp:"+op.Name, "unknown TE intent %q", op.Name)
		}
		delete(v.tunnels, op.Name)
	case OpUndefineVPN:
		if !v.vpns[op.VPN] {
			return refuse(core.ProvUnknownVPN, "vpn:"+op.VPN, "VPN %q not defined", op.VPN)
		}
		if site, ok := smallestOf(v.sites, op.VPN); ok {
			return refuse(core.ProvVPNInUse, "vpn:"+op.VPN, "VPN %q still has site %q provisioned", op.VPN, site)
		}
		if tun, ok := smallestOf(v.tunnels, op.VPN); ok {
			return refuse(core.ProvVPNInUse, "vpn:"+op.VPN, "VPN %q is still steered by TE intent %q", op.VPN, tun)
		}
		delete(v.vpns, op.VPN)
	default:
		return fmt.Errorf("netconf: unknown op kind %d", op.Kind)
	}
	return nil
}

// pe refuses a name that is not a PE: an unknown one as core refuses it, a
// known one of another kind in the role's words.
func (v *validateView) pe(role, name string) error {
	if v.b.IsPE(name) {
		return nil
	}
	if _, ok := v.b.G.NodeByName(name); !ok {
		return refuse(core.ProvUnknownNode, "node:"+name, "unknown node %q", name)
	}
	return fmt.Errorf("core: %s%q is not a PE", role, name)
}

// smallestOf returns the smallest name m maps to vpn, as core names the
// site or intent that keeps a VPN in use: the same one on every run.
func smallestOf(m map[string]string, vpn string) (name string, ok bool) {
	for n, in := range m {
		if in == vpn && (!ok || n < name) {
			name, ok = n, true
		}
	}
	return name, ok
}
