package netconf

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/core"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/rsvp"
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
	// Referencing an unknown PE fails closed, with core's refusal; a known
	// node that is not a PE says so.
	s.Discard()
	s.Stage(Op{Kind: OpDefineVPN, VPN: "v2"}, siteOp("v2", "x", "nosuch", "10.9.0.0/16"))
	if err := s.Validate(); !errors.Is(err, core.ProvUnknownNode) || !strings.Contains(err.Error(), `unknown node "nosuch"`) {
		t.Fatalf("unknown PE: got %v", err)
	}
	s.Discard()
	s.Stage(Op{Kind: OpDefineVPN, VPN: "v2"}, siteOp("v2", "x", "P1", "10.9.0.0/16"))
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "not a PE") {
		t.Fatalf("P router as PE: got %v", err)
	}
}

// TestVPNInUseRefusalIsStable: a VPN kept in use by several sites, or (with
// no sites) by several tunnels, is refused naming the smallest of them —
// by core and by Validate alike, and the same text on every try.
func TestVPNInUseRefusalIsStable(t *testing.T) {
	b := sessionBackbone(t)
	b.DefineVPN("three")
	for i, name := range []string{"c", "a", "b"} {
		b.AddSite(core.SiteSpec{VPN: "three", Name: name, PE: "PE1",
			Prefixes: []addr.Prefix{addr.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", i+1))}})
	}
	b.DefineVPN("two")
	for _, name := range []string{"t2", "t1"} {
		if _, err := b.SetupTELSPForVPN(name, "PE1", "PE2", "two", 1e6, -1, rsvp.SetupOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	b.ConvergeVPNs()
	s, _ := NewServer(b).Open("s")
	for _, tc := range []struct{ vpn, want string }{
		{"three", `core: VPN "three" still has site "a" provisioned`},
		{"two", `core: VPN "two" is still steered by TE intent "t1"`},
	} {
		for i := 0; i < 20; i++ {
			if err := b.UndefineVPN(tc.vpn); err == nil || err.Error() != tc.want {
				t.Fatalf("core, try %d: %v, want %q", i, err, tc.want)
			}
			s.Discard()
			s.Stage(Op{Kind: OpUndefineVPN, VPN: tc.vpn})
			var ce *CommitError
			if err := s.Validate(); !errors.As(err, &ce) || ce.Cause.Error() != tc.want {
				t.Fatalf("Validate, try %d: %v, want %q", i, err, tc.want)
			}
		}
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

// TestRollbackRestoresEveryOpKind: one batch of all seven op kinds, then an
// op that fails at apply. Each applied op's inverse goes back through
// applyOp, so the VPN undefined in the batch returns with its explicit
// route targets and SLA, the site and tunnel removed in it return, and
// what it added or changed is gone.
func TestRollbackRestoresEveryOpKind(t *testing.T) {
	b := sessionBackbone(t)
	rt := addr.RouteTarget{Admin: 65000, Assigned: 900}
	b.DefineVPNWithRTs("ext", []addr.RouteTarget{rt, {Admin: 65000, Assigned: 901}}, []addr.RouteTarget{rt})
	b.SetVPNSLA("ext", qos.ClassBusiness)
	b.DefineVPN("keep")
	b.AddSite(core.SiteSpec{VPN: "keep", Name: "old", PE: "PE1",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.1.0.0/16")}})
	if _, err := b.SetupTELSPForVPN("oldt", "PE1", "PE2", "keep", 5e6, qos.ClassVoice, rsvp.SetupOptions{}); err != nil {
		t.Fatal(err)
	}
	b.ConvergeVPNs()

	type vpnView struct {
		sla              qos.Class
		imports, exports []addr.RouteTarget
	}
	view := func() map[string]vpnView {
		out := map[string]vpnView{}
		for _, n := range []string{"ext", "keep", "new"} {
			sla, _ := b.VPNSLA(n)
			im, ex, _ := b.VPNRTs(n)
			out[n] = vpnView{sla, im, ex}
		}
		return out
	}
	vpns, intents, digest := view(), b.TEIntents(), b.ServiceDigest()

	srv := NewServer(b)
	s, _ := srv.Open("s")
	s.Stage(
		Op{Kind: OpDefineVPN, VPN: "new"},
		Op{Kind: OpSetVPNSLA, VPN: "keep", SLA: qos.ClassVoice},
		siteOp("new", "n1", "PE2", "10.2.0.0/16"),
		Op{Kind: OpRemoveSite, Name: "old"},
		Op{Kind: OpSetupTunnel, Tunnel: TunnelSpec{Name: "newt", Ingress: "PE2", Egress: "PE1", VPN: "new", Bandwidth: 2e6, Class: -1}},
		Op{Kind: OpTeardownTunnel, Name: "oldt"},
		Op{Kind: OpUndefineVPN, VPN: "ext"},
		Op{Kind: OpSetupTunnel, Tunnel: TunnelSpec{Name: "huge", Ingress: "PE1", Egress: "PE2", Bandwidth: 1e12, Class: -1}},
	)
	var ce *CommitError
	if err := s.Commit(); !errors.As(err, &ce) || ce.Index != 7 {
		t.Fatalf("commit: %v, want a failure at op 7", err)
	}
	if got := view(); !reflect.DeepEqual(got, vpns) {
		t.Errorf("VPNs after rollback:\n%+v\nwant:\n%+v", got, vpns)
	}
	if got := b.TEIntents(); !reflect.DeepEqual(got, intents) {
		t.Errorf("TE intents after rollback:\n%+v\nwant:\n%+v", got, intents)
	}
	if got := b.ServiceDigest(); got != digest {
		t.Errorf("digest after rollback:\n%s\nwant:\n%s", got, digest)
	}
	if srv.Rollbacks != 1 || srv.Commits != 0 || srv.OpsApplied != 7 {
		t.Errorf("counters: rollbacks=%d commits=%d ops=%d", srv.Rollbacks, srv.Commits, srv.OpsApplied)
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
