// Intent: the declarative provisioning plane at scale — one bulk directive
// declares a thousand VPNs, the reconciler compiles the desired-vs-actual
// diff into rate-limited transactional commits, and a mid-commit crash of
// the reconciler is shown to leave the provisioned service identical (by
// service digest) to a run that was never interrupted. Label numbering may
// differ: the rolled-back commit advanced the label allocators.
//
//	go run ./examples/intent
package main

import (
	"fmt"
	"strings"

	"mplsvpn/internal/core"
	"mplsvpn/internal/intent"
	"mplsvpn/internal/netconf"
	"mplsvpn/internal/sim"
)

const spec = `intent fleet version=1
# One line, one thousand customers: 2 sites each, round-robin over 4 PEs,
# /24s carved consecutively out of 10.0.0.0/13.
bulk cust count=1000 pes=PE1,PE2,PE3,PE4 base=10.0.0.0/13 sla=af21
# Plus one hand-written premium customer with a protected tunnel.
vpn gold sla=ef
site gold gold-hq PE1 10.200.0.0/24 hosts=2 shape=20M
site gold gold-dr PE3 10.201.0.0/24
tunnel gold gold-lsp PE1 PE3 5M class=ef
`

func build() *core.Backbone {
	b := core.NewBackbone(core.Config{Seed: 7})
	for _, pe := range []string{"PE1", "PE2", "PE3", "PE4"} {
		b.AddPE(pe)
	}
	b.AddP("P1")
	b.AddP("P2")
	for _, pe := range []string{"PE1", "PE2"} {
		b.Link(pe, "P1", 1e9, sim.Millisecond, 1)
	}
	for _, pe := range []string{"PE3", "PE4"} {
		b.Link(pe, "P2", 1e9, sim.Millisecond, 1)
	}
	b.Link("P1", "P2", 10e9, 2*sim.Millisecond, 1)
	b.BuildProvider()
	return b
}

// provision reconciles the spec onto a fresh backbone, optionally killing
// the reconciler mid-commit and restarting it, and returns the final
// digest plus the counters that tell the story.
func provision(killAt, restartAt sim.Time) (string, *netconf.Server, *intent.Reconciler) {
	b := build()
	srv := netconf.NewServer(b)
	store := intent.NewStore()
	sp, err := intent.Parse(strings.NewReader(spec), "fleet")
	must(err)
	must(store.Put(sp))
	rec := intent.NewReconciler(srv, store, intent.Options{
		Interval:       20 * sim.Millisecond,
		BatchOps:       128,
		ConfirmTimeout: 10 * sim.Millisecond,
		Horizon:        10 * sim.Second,
	})
	rec.Start()
	if killAt > 0 {
		b.At(killAt, func() { must(rec.Kill()) })
		b.At(restartAt, func() { must(rec.Restart()) })
	}
	b.Net.RunUntil(10 * sim.Second)
	if !rec.Converged() {
		panic(fmt.Sprintf("reconciler did not converge; %d ops pending", len(rec.Diff())))
	}
	return b.ServiceDigest(), srv, rec
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func main() {
	sp, _ := intent.Parse(strings.NewReader(spec), "fleet")
	nSites := 0
	for _, vs := range sp.VPNs {
		nSites += len(vs.Sites)
	}
	fmt.Printf("spec %q v%d: %d VPNs, %d sites from %d source lines\n\n",
		sp.Name, sp.Version, len(sp.VPNs), nSites, strings.Count(spec, "\n"))

	fmt.Println("--- run A: uninterrupted bulk provisioning ---")
	digA, srvA, recA := provision(0, 0)
	fmt.Printf("batches=%d ops=%d (cap 128/commit) scans=%d retries=%d quarantined=%d\n",
		recA.Stats.Batches, recA.Stats.OpsApplied, recA.Stats.Scans,
		recA.Stats.Retries, recA.Stats.Quarantined)
	fmt.Printf("sessions: %d commits, %d rollbacks, %d auto-rollbacks\n\n",
		srvA.Commits, srvA.Rollbacks, srvA.AutoRolled)

	fmt.Println("--- run B: reconciler killed mid-commit at t=103ms, restarted at t=500ms ---")
	// 103 ms lands between a batch's commit and its confirm: the commit is
	// left unconfirmed and the server's auto-rollback timer erases it.
	digB, srvB, recB := provision(103*sim.Millisecond, 500*sim.Millisecond)
	fmt.Printf("batches=%d ops=%d scans=%d retries=%d quarantined=%d\n",
		recB.Stats.Batches, recB.Stats.OpsApplied, recB.Stats.Scans,
		recB.Stats.Retries, recB.Stats.Quarantined)
	fmt.Printf("sessions: %d commits, %d rollbacks, %d auto-rollbacks\n\n",
		srvB.Commits, srvB.Rollbacks, srvB.AutoRolled)

	fmt.Printf("state digest A: %d bytes, digest B: %d bytes\n", len(digA), len(digB))
	switch {
	case srvB.AutoRolled < 1:
		fmt.Println("kill MISSED the commit window: no auto-rollback, nothing proven")
	case digA == digB:
		fmt.Println("digests IDENTICAL: the crash left no trace in the provisioned state")
	default:
		fmt.Println("digests DIVERGED: transactional provisioning is broken")
	}
}
