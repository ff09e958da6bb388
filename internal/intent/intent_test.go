package intent

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"mplsvpn/internal/chaos"
	"mplsvpn/internal/core"
	"mplsvpn/internal/dsl"
	"mplsvpn/internal/netconf"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/sim"
)

const testSpec = `# declarative intent for two customers
intent ops version=1
vpn acme sla=af41
site acme acme-hq PE1 10.1.0.0/24 hosts=2 shape=20M
site acme acme-br PE2 10.2.0.0/24
tunnel acme acme-gold PE1 PE2 10M class=ef
vpn beta
site beta beta-hq PE2 10.3.0.0/24
`

func mustSpec(t *testing.T, text string) *Spec {
	t.Helper()
	sp, err := Parse(strings.NewReader(text), "test")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func intentBackbone(t *testing.T) *core.Backbone {
	t.Helper()
	b := core.NewBackbone(core.Config{Seed: 1})
	b.AddPE("PE1")
	b.AddP("P1")
	b.AddPE("PE2")
	b.AddPE("PE3")
	b.Link("PE1", "P1", 100e6, sim.Millisecond, 1)
	b.Link("P1", "PE2", 100e6, sim.Millisecond, 1)
	b.Link("P1", "PE3", 100e6, sim.Millisecond, 1)
	b.BuildProvider()
	return b
}

func TestSpecRoundTrip(t *testing.T) {
	text := testSpec + `bulk cust count=4 pes=PE1,PE2,PE3 base=10.8.0.0/21 sites=2 sla=af21 bw=50M
site acme acme-dr PE3 10.4.0.0/24 backup=PE1 bw=25M delay=2ms
`
	sp := mustSpec(t, text)
	if len(sp.VPNs) != 2+4 {
		t.Fatalf("got %d VPNs, want 6", len(sp.VPNs))
	}
	again := mustSpec(t, sp.Render())
	if !reflect.DeepEqual(sp, again) {
		t.Fatalf("round trip diverged:\n--- first\n%s\n--- second\n%s", sp.Render(), again.Render())
	}
	if sp.Render() != again.Render() {
		t.Fatal("render is not stable")
	}
}

func TestSpecBulkExpansion(t *testing.T) {
	sp := mustSpec(t, "intent b version=3\nbulk c count=3 pes=PE1,PE2 base=10.0.0.0/16\n")
	if len(sp.VPNs) != 3 {
		t.Fatalf("got %d VPNs, want 3", len(sp.VPNs))
	}
	v := sp.VPNs[1]
	if v.Name != "c-0002" || len(v.Sites) != 2 {
		t.Fatalf("unexpected second VPN: %+v", v)
	}
	// Slots are carved consecutively: VPN 2 owns the 3rd and 4th /24.
	if got := v.Sites[0].Prefixes[0].String(); got != "10.0.2.0/24" {
		t.Fatalf("site prefix = %s, want 10.0.2.0/24", got)
	}
	// PEs round-robin with an offset so a VPN's sites land on distinct PEs.
	if v.Sites[0].PE == v.Sites[1].PE {
		t.Fatalf("both sites of %s on %s", v.Name, v.Sites[0].PE)
	}
	// Overflowing the base prefix is rejected, not wrapped.
	if _, err := Parse(strings.NewReader("intent b version=1\nbulk c count=200 pes=PE1 base=10.0.0.0/16\n"), "t"); err == nil {
		t.Fatal("oversubscribed bulk accepted")
	}
}

func TestSpecParseErrors(t *testing.T) {
	cases := []struct {
		spec string
		line int // where the *dsl.Error must point
	}{
		{"vpn acme\n", 1},                                                                      // missing intent header
		{"intent a version=0\n", 1},                                                            // bad version
		{"intent a version=1\nintent b version=2\n", 2},                                        // duplicate header
		{"intent a version=1\nsite acme s PE1 10.0.0.0/24\n", 2},                               // undeclared VPN
		{"intent a version=1\nvpn v\nvpn v\n", 3},                                              // duplicate VPN
		{"intent a version=1\nvpn v\nsite v s PE1 10.0.0.0/24\nsite v s PE1 10.1.0.0/24\n", 4}, // duplicate site
		{"intent a version=1\nvpn v\nsite v s PE1 bogus\n", 3},                                 // bad prefix
		{"intent a version=1\nbulk c count=1 pes=PE1\n", 2},                                    // missing base
		{"intent a version=1\nfrobnicate x\n", 2},                                              // unknown directive
		{"intent a version=1\nvpn v\ntunnel v t PE1 PE2 NaN\n", 3},                             // NaN bandwidth
		{"intent a version=1\nvpn v\nsite v s PE1 10.0.0.0/24 bw=Inf\n", 3},                    // infinite access bandwidth
		{"# nothing but comments\n\n", 3},                                                      // no header: end of input
	}
	for _, c := range cases {
		_, err := Parse(strings.NewReader(c.spec), "t")
		var de *dsl.Error
		if !errors.As(err, &de) || de.Line != c.line {
			t.Errorf("spec %q: error %#v, want a *dsl.Error at line %d", c.spec, err, c.line)
		}
	}
}

func TestStoreVersioning(t *testing.T) {
	st := NewStore()
	if err := st.Put(mustSpec(t, "intent a version=2\nvpn x\n")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(mustSpec(t, "intent a version=2\nvpn x\n")); err == nil {
		t.Fatal("stale version accepted")
	}
	if err := st.Put(mustSpec(t, "intent b version=1\nvpn x\n")); err == nil {
		t.Fatal("cross-spec VPN theft accepted")
	}
	// A new version of the owning spec can drop the VPN, releasing it.
	if err := st.Put(mustSpec(t, "intent a version=3\nvpn y\n")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(mustSpec(t, "intent b version=1\nvpn x\n")); err != nil {
		t.Fatalf("released VPN still owned: %v", err)
	}
	if got := st.Version("a"); got != 3 {
		t.Fatalf("Version(a) = %d, want 3", got)
	}
	want := []VPNSpec{{Name: "x", SLA: -1}, {Name: "y", SLA: -1}}
	if !reflect.DeepEqual(st.Desired(), want) {
		t.Fatalf("Desired() = %+v", st.Desired())
	}
}

// testOptions makes every phase of the commit cycle land at a known virtual
// time so kill tests can aim between them deterministically.
func testOptions() Options {
	return Options{
		Interval:       20 * sim.Millisecond,
		BatchGap:       5 * sim.Millisecond,
		ValidateGap:    sim.Millisecond,
		ConfirmDelay:   2 * sim.Millisecond,
		ConfirmTimeout: 10 * sim.Millisecond,
		Horizon:        200 * sim.Millisecond,
	}
}

func TestReconcilerConverges(t *testing.T) {
	b := intentBackbone(t)
	srv := netconf.NewServer(b)
	st := NewStore()
	if err := st.Put(mustSpec(t, testSpec)); err != nil {
		t.Fatal(err)
	}
	rec := NewReconciler(srv, st, testOptions())
	rec.Start()
	b.Net.RunUntil(100 * sim.Millisecond)

	if !rec.Converged() {
		t.Fatalf("not converged; diff=%v", rec.Diff())
	}
	for _, vpn := range []string{"acme", "beta"} {
		if !b.HasVPN(vpn) {
			t.Fatalf("VPN %s not provisioned", vpn)
		}
	}
	if sla, _ := b.VPNSLA("acme"); sla != qos.ClassBusiness {
		t.Fatalf("acme SLA = %v, want business", sla)
	}
	if got := len(b.SiteNames()); got != 3 {
		t.Fatalf("got %d sites, want 3", got)
	}
	tes := b.TEIntents()
	if len(tes) != 1 || tes[0].Name != "acme-gold" || tes[0].State != "up" {
		t.Fatalf("TE intents = %+v", tes)
	}
	if rec.Stats.Quarantined != 0 || len(rec.Quarantined()) != 0 {
		t.Fatalf("unexpected quarantine: %+v", rec.Quarantined())
	}

	// A new version that drops beta deprovisions it — sites, then the VPN.
	v2 := strings.Replace(testSpec, "version=1", "version=2", 1)
	v2 = strings.ReplaceAll(v2, "vpn beta\nsite beta beta-hq PE2 10.3.0.0/24\n", "")
	if err := st.Put(mustSpec(t, v2)); err != nil {
		t.Fatal(err)
	}
	b.Net.RunUntil(200 * sim.Millisecond)
	if b.HasVPN("beta") {
		t.Fatal("beta still provisioned after spec dropped it")
	}
	if !rec.Converged() {
		t.Fatalf("not converged after shrink; diff=%v", rec.Diff())
	}
	if got := len(b.SiteNames()); got != 2 {
		t.Fatalf("got %d sites after shrink, want 2", got)
	}
}

// reconcileRun provisions testSpec, optionally killing the reconciler at
// killAt and restarting it at restartAt, and returns the final digest.
func reconcileRun(t *testing.T, killAt, restartAt sim.Time) (*core.Backbone, *netconf.Server, *Reconciler) {
	t.Helper()
	b := intentBackbone(t)
	srv := netconf.NewServer(b)
	st := NewStore()
	if err := st.Put(mustSpec(t, testSpec)); err != nil {
		t.Fatal(err)
	}
	rec := NewReconciler(srv, st, testOptions())
	rec.Start()
	if killAt > 0 {
		b.At(killAt, func() {
			if err := rec.Kill(); err != nil {
				t.Errorf("kill: %v", err)
			}
		})
		b.At(restartAt, func() {
			if err := rec.Restart(); err != nil {
				t.Errorf("restart: %v", err)
			}
		})
	}
	b.Net.RunUntil(200 * sim.Millisecond)
	if !rec.Converged() {
		t.Fatalf("not converged; diff=%v", rec.Diff())
	}
	return b, srv, rec
}

// TestKillMidCommitConverges is the headline acceptance test: the first
// batch commits at t=1ms and would confirm at t=3ms; killing the
// reconciler at t=2ms abandons the unconfirmed commit, the server's
// auto-rollback timer erases it, and the restarted reconciler re-derives
// everything — ending byte-identical to a run that was never interrupted.
func TestKillMidCommitConverges(t *testing.T) {
	clean, _, _ := reconcileRun(t, 0, 0)
	b, srv, _ := reconcileRun(t, 2*sim.Millisecond, 30*sim.Millisecond)

	// The kill must actually have landed in the commit->confirm window:
	// demand the auto-rollback fired, so timing drift fails loudly instead
	// of silently degrading the test to the uninterrupted case.
	if srv.AutoRolled < 1 {
		t.Fatalf("auto-rollback never fired (AutoRolled=%d); kill missed the window", srv.AutoRolled)
	}
	if got, want := b.ServiceDigest(), clean.ServiceDigest(); got != want {
		t.Fatalf("interrupted run diverged from clean run:\n--- clean\n%s\n--- interrupted\n%s", want, got)
	}
}

// TestKillBeforeCommitAppliesNothing kills in the validate->commit window:
// the session is abandoned before anything touches the backbone.
func TestKillBeforeCommitAppliesNothing(t *testing.T) {
	clean, _, _ := reconcileRun(t, 0, 0)

	b := intentBackbone(t)
	srv := netconf.NewServer(b)
	st := NewStore()
	if err := st.Put(mustSpec(t, testSpec)); err != nil {
		t.Fatal(err)
	}
	rec := NewReconciler(srv, st, testOptions())
	rec.Start()
	// The kill runs between two runs, not as a booked callback: a booked
	// one would join the registry StateDigest compares with the clean run.
	b.Net.RunUntil(500 * sim.Microsecond)
	if err := rec.Kill(); err != nil {
		t.Fatal(err)
	}
	b.Net.RunUntil(20 * sim.Millisecond)
	if srv.Commits != 0 || srv.OpsApplied != 0 {
		t.Fatalf("ops leaked through an abandoned session: commits=%d applied=%d", srv.Commits, srv.OpsApplied)
	}
	if b.HasVPN("acme") || b.HasVPN("beta") {
		t.Fatal("VPN provisioned by a session that never committed")
	}
	if err := rec.Restart(); err != nil {
		t.Fatal(err)
	}
	b.Net.RunUntil(200 * sim.Millisecond)
	if !rec.Converged() {
		t.Fatalf("not converged after restart; diff=%v", rec.Diff())
	}
	if got, want := b.StateDigest(), clean.StateDigest(); got != want {
		t.Fatalf("restart run diverged from clean run:\n--- clean\n%s\n--- restarted\n%s", want, got)
	}
}

// TestSnapshotRefusesPendingReconcilerStep: no checkpoint section owns the
// reconciler's step, so a snapshot with one pending is refused by type —
// cut once between validate and commit, once between commit and confirm,
// where netconf's confirmTimer is pending beside it — and a refused
// snapshot leaves the run as it was.
func TestSnapshotRefusesPendingReconcilerStep(t *testing.T) {
	clean, _, _ := reconcileRun(t, 0, 0)

	b := intentBackbone(t)
	srv := netconf.NewServer(b)
	st := NewStore()
	if err := st.Put(mustSpec(t, testSpec)); err != nil {
		t.Fatal(err)
	}
	rec := NewReconciler(srv, st, testOptions())
	rec.Start()
	for _, cut := range []struct {
		at      sim.Time
		commits int // the first batch commits at 1 ms and confirms at 3 ms
		refused []string
	}{
		{500 * sim.Microsecond, 0, []string{"*intent.step"}},
		{2 * sim.Millisecond, 1, []string{"*intent.step", "*netconf.confirmTimer"}},
	} {
		b.Net.RunUntil(cut.at)
		if srv.Commits != cut.commits {
			t.Fatalf("cut at %v: %d commits, want %d (outside the window)", cut.at, srv.Commits, cut.commits)
		}
		_, err := b.Snapshot("intent")
		if err == nil {
			t.Fatalf("cut at %v: snapshot accepted a pending reconciler step", cut.at)
		}
		for _, typ := range cut.refused {
			if !strings.Contains(err.Error(), typ) {
				t.Errorf("cut at %v: refusal does not name %s: %v", cut.at, typ, err)
			}
		}
	}
	b.Net.RunUntil(200 * sim.Millisecond)
	if got, want := b.StateDigest(), clean.StateDigest(); got != want {
		t.Fatalf("refused snapshots changed the run:\n--- clean\n%s\n--- cut\n%s", want, got)
	}
}

// TestChaosScriptedKill drives the same kill through the chaos plane: a
// scenario's rkill directive lands between commit and confirm under
// control-plane loss, the invariant checker runs after every injected op,
// and rrestart brings the reconciler back to full convergence with nothing
// half-provisioned.
func TestChaosScriptedKill(t *testing.T) {
	b := intentBackbone(t)
	srv := netconf.NewServer(b)
	st := NewStore()
	if err := st.Put(mustSpec(t, testSpec)); err != nil {
		t.Fatal(err)
	}
	rec := NewReconciler(srv, st, testOptions())

	script := "ctrlloss 0.2 extra=20ms\nrkill at=2ms\nrrestart at=30ms\n"
	sc, err := chaos.ParseScenario(strings.NewReader(script), "rkill")
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(b, sc)
	inj.Reconciler = rec
	inj.Schedule()
	rec.Start()
	b.Net.RunUntil(200 * sim.Millisecond)

	if inj.Applied != 2 || inj.Rejected != 0 {
		t.Fatalf("chaos ops: applied=%d rejected=%d, want 2/0", inj.Applied, inj.Rejected)
	}
	if len(inj.Checker.Violations) != 0 {
		t.Fatalf("invariant violations: %v", inj.Checker.Violations)
	}
	if srv.AutoRolled < 1 {
		t.Fatalf("auto-rollback never fired (AutoRolled=%d)", srv.AutoRolled)
	}
	if !rec.Converged() {
		t.Fatalf("not converged; diff=%v", rec.Diff())
	}
	// Nothing half-provisioned: both VPNs fully up, exactly the declared
	// sites, the tunnel signalled.
	if !b.HasVPN("acme") || !b.HasVPN("beta") || len(b.SiteNames()) != 3 {
		t.Fatalf("half-provisioned state: sites=%v", b.SiteNames())
	}
	if tes := b.TEIntents(); len(tes) != 1 || tes[0].Name != "acme-gold" {
		t.Fatalf("TE intents = %+v", tes)
	}
	// A scenario aimed at a run without a reconciler is rejected, not fatal.
	b2 := intentBackbone(t)
	inj2 := chaos.New(b2, sc)
	inj2.Schedule()
	b2.Net.RunUntil(50 * sim.Millisecond)
	if inj2.Rejected != 2 {
		t.Fatalf("unattached reconciler ops: rejected=%d, want 2", inj2.Rejected)
	}
}

// TestQuarantineTerminalOp: a site on a nonexistent PE can never apply; it
// must be quarantined (not retried forever) while the rest of the spec
// converges.
func TestQuarantineTerminalOp(t *testing.T) {
	b := intentBackbone(t)
	srv := netconf.NewServer(b)
	st := NewStore()
	spec := testSpec + "site beta beta-bad PE9 10.9.0.0/24\n"
	if err := st.Put(mustSpec(t, spec)); err != nil {
		t.Fatal(err)
	}
	rec := NewReconciler(srv, st, testOptions())
	rec.Start()
	b.Net.RunUntil(200 * sim.Millisecond)

	if !rec.Converged() {
		t.Fatalf("not converged around the bad op; diff=%v", rec.Diff())
	}
	q := rec.Quarantined()
	if len(q) != 1 {
		t.Fatalf("quarantine = %v, want exactly the bad site", q)
	}
	for k, err := range q {
		if !strings.Contains(k, "beta-bad") || err == nil {
			t.Fatalf("quarantined %q: %v", k, err)
		}
	}
	// Everything else still provisioned.
	if !b.HasVPN("acme") || !b.HasVPN("beta") || len(b.SiteNames()) != 3 {
		t.Fatalf("good ops starved: sites=%v", b.SiteNames())
	}
	// Quarantine survives a restart: crashing does not make the op valid.
	if err := rec.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Restart(); err != nil {
		t.Fatal(err)
	}
	b.Net.RunUntil(400 * sim.Millisecond)
	if len(rec.Quarantined()) != 1 {
		t.Fatalf("quarantine lost across restart: %v", rec.Quarantined())
	}
}
