package netconf

import (
	"errors"
	"strings"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/core"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/sim"
)

// sessionBackbone builds a small three-node MPLS backbone for transaction
// tests.
func sessionBackbone(t *testing.T) *core.Backbone {
	t.Helper()
	b := core.NewBackbone(core.Config{Seed: 1})
	b.AddPE("PE1")
	b.AddP("P1")
	b.AddPE("PE2")
	b.Link("PE1", "P1", 100e6, sim.Millisecond, 1)
	b.Link("P1", "PE2", 100e6, sim.Millisecond, 1)
	b.BuildProvider()
	return b
}

func siteOp(vpn, name, pe, prefix string) Op {
	return Op{Kind: OpAddSite, Site: core.SiteSpec{
		VPN: vpn, Name: name, PE: pe,
		Prefixes: []addr.Prefix{addr.MustParsePrefix(prefix)},
	}}
}

func TestSessionDuplicateAndStaleIDs(t *testing.T) {
	srv := NewServer(sessionBackbone(t))
	s, err := srv.Open("ops-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Open("ops-1"); !errors.Is(err, ErrDuplicateSession) {
		t.Fatalf("duplicate open: got %v, want ErrDuplicateSession", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Open("ops-1"); !errors.Is(err, ErrStaleSession) {
		t.Fatalf("stale open: got %v, want ErrStaleSession", err)
	}
	if err := s.Stage(Op{Kind: OpDefineVPN, VPN: "x"}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("stage on closed session: got %v, want ErrSessionClosed", err)
	}
	if _, err := srv.Open("ops-2"); err != nil {
		t.Fatalf("fresh ID refused: %v", err)
	}
}

func TestSessionValidateCommit(t *testing.T) {
	b := sessionBackbone(t)
	srv := NewServer(b)
	s, _ := srv.Open("s")

	s.Stage(
		Op{Kind: OpDefineVPN, VPN: "acme"},
		Op{Kind: OpSetVPNSLA, VPN: "acme", SLA: qos.ClassBusiness},
		siteOp("acme", "hq", "PE1", "10.1.0.0/16"),
		siteOp("acme", "br", "PE2", "10.2.0.0/16"),
		Op{Kind: OpSetupTunnel, Tunnel: TunnelSpec{
			Name: "gold", Ingress: "PE1", Egress: "PE2", VPN: "acme",
			Bandwidth: 10e6, Class: qos.ClassVoice,
		}},
	)
	if err := s.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if !b.HasVPN("acme") {
		t.Fatal("VPN not defined after commit")
	}
	if _, ok := b.Site("hq"); !ok {
		t.Fatal("site hq missing after commit")
	}
	if sla, _ := b.VPNSLA("acme"); sla != qos.ClassBusiness {
		t.Fatalf("SLA = %v, want business", sla)
	}
	sts := b.TEIntents()
	if len(sts) != 1 || sts[0].State != "up" {
		t.Fatalf("tunnel after commit: %+v", sts)
	}
	if srv.Commits != 1 || srv.OpsApplied != 5 || srv.Convergence != 1 {
		t.Fatalf("counters: commits=%d ops=%d conv=%d", srv.Commits, srv.OpsApplied, srv.Convergence)
	}
}

func TestValidateCatchesBatchCollisions(t *testing.T) {
	srv := NewServer(sessionBackbone(t))
	s, _ := srv.Open("s")
	s.Stage(
		Op{Kind: OpDefineVPN, VPN: "acme"},
		Op{Kind: OpDefineVPN, VPN: "acme"},
	)
	var ce *CommitError
	if err := s.Validate(); !errors.As(err, &ce) || ce.Index != 1 {
		t.Fatalf("validate: got %v, want CommitError at index 1", err)
	}
	// Discard clears the candidate; a coherent batch then passes.
	s.Discard()
	s.Stage(
		Op{Kind: OpDefineVPN, VPN: "acme"},
		siteOp("acme", "hq", "PE1", "10.1.0.0/16"),
		Op{Kind: OpRemoveSite, Name: "hq"},
		Op{Kind: OpUndefineVPN, VPN: "acme"},
	)
	if err := s.Validate(); err != nil {
		t.Fatalf("validate after discard: %v", err)
	}
	// Referencing an unknown PE fails closed.
	s.Discard()
	s.Stage(Op{Kind: OpDefineVPN, VPN: "v2"}, siteOp("v2", "x", "nosuch", "10.9.0.0/16"))
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "not a PE") {
		t.Fatalf("unknown PE: got %v", err)
	}
}

// TestValidateRefusalsAreTyped: a refusal validate shares with core carries
// core's code and message, so core.CodeOf classifies an op alike whether
// validate or apply refuses it.
func TestValidateRefusalsAreTyped(t *testing.T) {
	b := sessionBackbone(t)
	b.DefineVPN("acme")
	b.AddSite(core.SiteSpec{VPN: "acme", Name: "hq", PE: "PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	b.ConvergeVPNs()
	srv := NewServer(b)
	s, _ := srv.Open("s")
	for _, tc := range []struct {
		name  string
		op    Op
		code  core.ProvisionCode
		apply string // core's message for the same refusal
	}{
		{"unknown VPN", Op{Kind: OpUndefineVPN, VPN: "nosuch"}, core.ProvUnknownVPN, b.UndefineVPN("nosuch").Error()},
		{"duplicate site", siteOp("acme", "hq", "PE2", "10.9.0.0/16"), core.ProvDuplicateSite, `core: site "hq" already provisioned`},
		{"VPN in use", Op{Kind: OpUndefineVPN, VPN: "acme"}, core.ProvVPNInUse, b.UndefineVPN("acme").Error()},
	} {
		s.Discard()
		s.Stage(tc.op)
		err := s.Validate()
		if code, ok := core.CodeOf(err); !ok || code != tc.code {
			t.Errorf("%s: CodeOf(%v) = %v, %t; want %v", tc.name, err, code, ok, tc.code)
		}
		var ce *CommitError
		if !errors.As(err, &ce) || ce.Cause.Error() != tc.apply {
			t.Errorf("%s: validate says %v, core says %q", tc.name, err, tc.apply)
		}
	}
}

func TestCommitFailureRollsBackAppliedPrefix(t *testing.T) {
	b := sessionBackbone(t)
	srv := NewServer(b)
	before := b.ServiceDigest()

	s, _ := srv.Open("s")
	s.Stage(
		Op{Kind: OpDefineVPN, VPN: "acme"},
		siteOp("acme", "hq", "PE1", "10.1.0.0/16"),
		// 1 Tb/s can never be admitted on 100 Mb/s links: the commit fails
		// on the last op and must unwind the first two.
		Op{Kind: OpSetupTunnel, Tunnel: TunnelSpec{
			Name: "huge", Ingress: "PE1", Egress: "PE2", Bandwidth: 1e12,
		}},
	)
	err := s.Commit()
	if err == nil {
		t.Fatal("commit of unplaceable tunnel succeeded")
	}
	if !core.Retryable(err) {
		t.Fatalf("admission failure should classify retryable, got %v", err)
	}
	if b.HasVPN("acme") {
		t.Fatal("VPN survived a failed commit")
	}
	if _, ok := b.Site("hq"); ok {
		t.Fatal("site survived a failed commit")
	}
	if got := b.ServiceDigest(); got != before {
		t.Fatalf("digest changed across failed commit:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	if srv.Rollbacks != 1 || srv.Commits != 0 {
		t.Fatalf("counters: rollbacks=%d commits=%d", srv.Rollbacks, srv.Commits)
	}
}

func TestConcurrentCommitRejected(t *testing.T) {
	b := sessionBackbone(t)
	srv := NewServer(b)
	s1, _ := srv.Open("s1")
	s2, _ := srv.Open("s2")

	s1.Stage(Op{Kind: OpDefineVPN, VPN: "a"})
	if err := s1.CommitConfirmed(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	s2.Stage(Op{Kind: OpDefineVPN, VPN: "b"})
	if err := s2.Commit(); !errors.Is(err, ErrCommitInProgress) {
		t.Fatalf("concurrent commit: got %v, want ErrCommitInProgress", err)
	}
	if err := s2.CommitConfirmed(sim.Millisecond); !errors.Is(err, ErrCommitInProgress) {
		t.Fatalf("concurrent confirmed commit: got %v, want ErrCommitInProgress", err)
	}
	if err := s1.Confirm(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Commit(); err != nil {
		t.Fatalf("commit after lock release: %v", err)
	}
	if !b.HasVPN("a") || !b.HasVPN("b") {
		t.Fatal("both VPNs should exist")
	}
	if err := s1.Confirm(); !errors.Is(err, ErrNoPendingConfirm) {
		t.Fatalf("double confirm: got %v", err)
	}
}

func TestConfirmedCommitAutoRollback(t *testing.T) {
	b := sessionBackbone(t)
	srv := NewServer(b)
	before := b.ServiceDigest()

	s, _ := srv.Open("s")
	s.Stage(
		Op{Kind: OpDefineVPN, VPN: "acme"},
		siteOp("acme", "hq", "PE1", "10.1.0.0/16"),
		Op{Kind: OpSetupTunnel, Tunnel: TunnelSpec{
			Name: "gold", Ingress: "PE1", Egress: "PE2", VPN: "acme", Bandwidth: 5e6,
		}},
	)
	if err := s.CommitConfirmed(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !b.HasVPN("acme") {
		t.Fatal("commit should apply immediately")
	}
	// The client dies: no Confirm ever arrives. The timer must undo
	// everything — VPN, site, and LSP.
	b.Net.RunUntil(100 * sim.Millisecond)
	if b.HasVPN("acme") {
		t.Fatal("auto-rollback did not undefine the VPN")
	}
	if _, ok := b.Site("hq"); ok {
		t.Fatal("auto-rollback left the site provisioned")
	}
	if len(b.TEIntents()) != 0 {
		t.Fatal("auto-rollback left the tunnel signalled")
	}
	if got := b.ServiceDigest(); got != before {
		t.Fatalf("digest differs after auto-rollback:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	if srv.AutoRolled != 1 {
		t.Fatalf("AutoRolled = %d", srv.AutoRolled)
	}
	// The lock is released: another session can commit now.
	s2, _ := srv.Open("s2")
	s2.Stage(Op{Kind: OpDefineVPN, VPN: "next"})
	if err := s2.Commit(); err != nil {
		t.Fatalf("commit after auto-rollback: %v", err)
	}
}

func TestConfirmedCommitConfirmKeepsState(t *testing.T) {
	b := sessionBackbone(t)
	srv := NewServer(b)
	s, _ := srv.Open("s")
	s.Stage(Op{Kind: OpDefineVPN, VPN: "acme"}, siteOp("acme", "hq", "PE1", "10.1.0.0/16"))
	if err := s.CommitConfirmed(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := s.Confirm(); err != nil {
		t.Fatal(err)
	}
	b.Net.RunUntil(100 * sim.Millisecond)
	if !b.HasVPN("acme") {
		t.Fatal("confirmed state must survive the timer horizon")
	}
	if srv.Rollbacks != 0 {
		t.Fatalf("Rollbacks = %d after confirm", srv.Rollbacks)
	}
}

func TestCloseBeforeConfirmRollsBack(t *testing.T) {
	b := sessionBackbone(t)
	srv := NewServer(b)
	before := b.ServiceDigest()
	s, _ := srv.Open("s")
	s.Stage(Op{Kind: OpDefineVPN, VPN: "acme"}, siteOp("acme", "hq", "PE2", "10.2.0.0/16"))
	if err := s.CommitConfirmed(sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := b.ServiceDigest(); got != before {
		t.Fatalf("close-before-confirm left state behind:\nbefore:\n%s\nafter:\n%s", before, got)
	}
}

// TestRemoveAddRoundTripDigest proves the retire/revive contract: removing
// a site and re-adding the same spec is invisible in the ServiceDigest, so
// transactional rollback of an AddSite (which is RemoveSite) followed by a
// re-apply converges to the identical state.
func TestRemoveAddRoundTripDigest(t *testing.T) {
	b := sessionBackbone(t)
	srv := NewServer(b)
	s, _ := srv.Open("s")
	spec := core.SiteSpec{
		VPN: "acme", Name: "hq", PE: "PE1", BackupPE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")},
		Hosts:    2, ShapeRate: 20e6,
	}
	s.Stage(
		Op{Kind: OpDefineVPN, VPN: "acme"},
		Op{Kind: OpAddSite, Site: spec},
		siteOp("acme", "br", "PE2", "10.2.0.0/16"),
	)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	want := b.ServiceDigest()

	s.Stage(Op{Kind: OpRemoveSite, Name: "hq"})
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := b.ServiceDigest(); got == want {
		t.Fatal("digest unchanged by site removal")
	}
	s.Stage(Op{Kind: OpAddSite, Site: spec})
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := b.ServiceDigest(); got != want {
		t.Fatalf("digest differs after remove+re-add:\nwant:\n%s\ngot:\n%s", want, got)
	}

	// An incompatible revive (different skeleton) is refused at validate.
	s.Stage(Op{Kind: OpRemoveSite, Name: "hq"})
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	bad := spec
	bad.PE = "PE2"
	s.Stage(Op{Kind: OpAddSite, Site: bad})
	err := s.Validate()
	if err == nil || !errors.Is(err, core.ProvSkeletonMismatch) {
		t.Fatalf("incompatible revive: got %v, want skeleton mismatch", err)
	}
	s.Discard()
}
