package experiments

import (
	"fmt"
	"strings"

	"mplsvpn/internal/core"
	"mplsvpn/internal/intent"
	"mplsvpn/internal/netconf"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/stats"
)

// E18Result is the transactional-provisioning scorecard: one bulk intent
// spec is reconciled onto identical backbones three ways — uninterrupted,
// with the reconciler killed between a commit and its confirm (the server
// auto-rolls the orphaned commit back), and killed between validate and
// commit (the session is abandoned with nothing applied). The claim: all
// three converge to byte-identical state digests, so a controller crash at
// the worst possible moment is invisible in the provisioned network.
type E18Result struct {
	Table *stats.Table

	VPNs, Sites int // size of the desired state

	Batches     map[string]int // transactional commits per config
	OpsApplied  map[string]int
	Rollbacks   map[string]int // server-side rollbacks (incl. auto)
	AutoRolled  map[string]int // confirm-timeout rollbacks
	Converged   map[string]bool
	DigestMatch map[string]bool // digest == uninterrupted run's digest
}

// e18Spec declares the fleet: one bulk line plus a premium customer with a
// TE tunnel, so the batch stream carries every op kind.
const e18Spec = `intent fleet version=1
bulk cust count=150 pes=PE1,PE2,PE3 base=10.0.0.0/15 sla=af21
vpn gold sla=ef
site gold gold-hq PE1 10.200.0.0/24 shape=20M
site gold gold-dr PE3 10.201.0.0/24
tunnel gold gold-lsp PE1 PE3 5M class=ef
`

// E18TransactionalProvisioning runs the three configurations. dur == 0
// selects the default 5 s horizon.
func E18TransactionalProvisioning(dur sim.Time) *E18Result {
	if dur == 0 {
		dur = 5 * sim.Second
	}
	res := &E18Result{
		Table: stats.NewTable("E18 — transactional bulk provisioning under reconciler crashes",
			"config", "batches", "ops", "rollbacks", "auto_rb", "converged", "digest_match"),
		Batches:     map[string]int{},
		OpsApplied:  map[string]int{},
		Rollbacks:   map[string]int{},
		AutoRolled:  map[string]int{},
		Converged:   map[string]bool{},
		DigestMatch: map[string]bool{},
	}

	sp, err := intent.Parse(strings.NewReader(e18Spec), "e18")
	if err != nil {
		panic(err)
	}
	res.VPNs = len(sp.VPNs)
	for _, vs := range sp.VPNs {
		res.Sites += len(vs.Sites)
	}

	// With these options a batch staged at t scans commits at t+1ms and
	// confirms at t+3ms; the kill times below aim inside those windows.
	opts := intent.Options{
		Interval:       20 * sim.Millisecond,
		BatchOps:       64,
		ValidateGap:    sim.Millisecond,
		ConfirmDelay:   2 * sim.Millisecond,
		ConfirmTimeout: 10 * sim.Millisecond,
		Horizon:        dur,
	}

	run := func(name string, killAt, restartAt sim.Time) string {
		b := core.NewBackbone(core.Config{Seed: 180, Scheduler: core.SchedHybrid})
		b.AddPE("PE1")
		b.AddP("P1")
		b.AddPE("PE2")
		b.AddPE("PE3")
		b.Link("PE1", "P1", 1e9, sim.Millisecond, 1)
		b.Link("P1", "PE2", 1e9, sim.Millisecond, 1)
		b.Link("P1", "PE3", 1e9, sim.Millisecond, 1)
		b.BuildProvider()

		srv := netconf.NewServer(b)
		store := intent.NewStore()
		spec, err := intent.Parse(strings.NewReader(e18Spec), "e18")
		if err != nil {
			panic(err)
		}
		if err := store.Put(spec); err != nil {
			panic(err)
		}
		rec := intent.NewReconciler(srv, store, opts)
		rec.Start()
		if killAt > 0 {
			b.At(killAt, func() {
				if err := rec.Kill(); err != nil {
					panic(fmt.Sprintf("e18 %s kill: %v", name, err))
				}
			})
			b.At(restartAt, func() {
				if err := rec.Restart(); err != nil {
					panic(fmt.Sprintf("e18 %s restart: %v", name, err))
				}
			})
		}
		b.Net.RunUntil(dur)

		res.Batches[name] = rec.Stats.Batches
		res.OpsApplied[name] = rec.Stats.OpsApplied
		res.Rollbacks[name] = srv.Rollbacks
		res.AutoRolled[name] = srv.AutoRolled
		res.Converged[name] = rec.Converged()
		return b.ServiceDigest()
	}

	base := run("clean", 0, 0)
	res.DigestMatch["clean"] = true
	// The t=20ms periodic scan launches a batch that commits at 21ms and
	// confirms at 23ms; killing at 22ms orphans that unconfirmed commit.
	res.DigestMatch["kill-mid-commit"] =
		run("kill-mid-commit", 22*sim.Millisecond, 300*sim.Millisecond) == base
	// 20.5ms is between that batch's validate (20ms) and commit (21ms):
	// the session is abandoned before anything touches the backbone.
	res.DigestMatch["kill-pre-commit"] =
		run("kill-pre-commit", 20*sim.Millisecond+500*sim.Microsecond, 300*sim.Millisecond) == base

	for _, name := range []string{"clean", "kill-mid-commit", "kill-pre-commit"} {
		res.Table.AddRow(name, res.Batches[name], res.OpsApplied[name],
			res.Rollbacks[name], res.AutoRolled[name], res.Converged[name], res.DigestMatch[name])
	}
	return res
}
