// Checkpoint/restore for multi-provider simulations: one container holding
// the shared engine/topology/network sections once, every member AS's
// control and traffic sections under a "<as>/" prefix, and the inter-AS
// peering plane (session state machines, selected trees, boundary label
// records, stitch cache) as its own section.
//
// The protocol mirrors Backbone.Snapshot: the restore path re-runs the
// original multi-AS scenario builder (including AddPeering and the initial
// ReconcilePeerings), then overlays the serialized dynamic state — the
// rebuild's boundary installations are discarded wholesale in favour of the
// checkpoint's records, exactly as router forwarding state is. A pending
// control timer carries its backbone's domain in the high bits of its
// encoded kind, which is what routes each re-arm to the right AS here, or
// with domain 0 to the plane (its peering hello tick).
package core

import (
	"cmp"
	"fmt"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/snapshot"
)

const secInterAS = "interas"

// Snapshot serializes the whole multi-provider simulation at the current
// virtual time. Every member backbone must be built.
func (x *InterAS) Snapshot(scenario string) ([]byte, error) {
	for _, name := range x.order {
		if !x.ASes[name].built {
			return nil, fmt.Errorf("core: snapshot before BuildProvider of AS %q", name)
		}
	}
	pend, err := classifyPending(x.E, x.Net.OwnsAction, x.members())
	if err != nil {
		return nil, err
	}
	data := encodeSections(x.sections(scenario, pend), x.checkpointLen)
	x.checkpointLen = len(data)
	return data, nil
}

// Restore overlays a multi-provider checkpoint onto a build of its
// scenario: same builder (including peerings and the initial reconcile),
// same seed, same sharding.
func (x *InterAS) Restore(data []byte, scenario string) error {
	// Every pending event comes from the checkpoint: the rebuild's go.
	x.E.DropPending()
	pend := &pendingSet{}
	if err := restoreSections(data, x.sections(scenario, pend)); err != nil {
		return err
	}
	x.checkpointLen = len(data)
	return pend.rearm(x.E, x.members(), x)
}

// members returns the member backbones in AS order.
func (x *InterAS) members() []*Backbone {
	ases := make([]*Backbone, len(x.order))
	for i, name := range x.order {
		ases[i] = x.ASes[name]
	}
	return ases
}

// sections is the multi-provider checkpoint in file order: the shared
// engine, topology and network sections once, every member AS's control and
// traffic sections under its "<as>/" prefix, and the peering plane.
func (x *InterAS) sections(scenario string, pend *pendingSet) []section {
	secs := []section{
		{name: secManifest, walk: func(c *snapshot.Codec) { x.manifestState(c, scenario) }},
		{name: secEngine, late: true, walk: func(c *snapshot.Codec) {
			schedState(c, x.E)
			for _, name := range x.order {
				x.ASes[name].auxRngState(c)
			}
		}},
		{name: secPending, walk: func(c *snapshot.Codec) { pendingState(c, x.E, pend) }},
		{name: secTopo, walk: func(c *snapshot.Codec) { topoState(c, x.G) }},
	}
	for _, name := range x.order {
		secs = append(secs, x.ASes[name].controlSections(name+"/")...)
	}
	secs = append(secs, section{name: secNet, walk: x.Net.State})
	for _, name := range x.order {
		secs = append(secs, x.ASes[name].trafficSections(name+"/")...)
	}
	return append(secs, section{name: secInterAS, walk: x.planeState})
}

// manifestState walks what identifies the run: the scenario fingerprint,
// snapshot instant, scheduler count, and each member AS's name, seed and
// forwarding mode. A load refuses a checkpoint of any other run.
func (x *InterAS) manifestState(c *snapshot.Codec, scenario string) {
	got := scenario
	c.Str(&got)
	c.I64(int64(x.E.Now()))
	scheds := len(x.E.Schedulers())
	nsched := c.U64(uint64(scheds))
	if c.Loaded() && got != scenario {
		c.Mismatch("scenario %q, checkpoint %q", scenario, got)
	}
	if c.Loaded() && nsched != uint64(scheds) {
		c.Mismatch("%d schedulers, checkpoint %d", scheds, nsched)
	}
	// An AS writes its name, its seed and the forwarding flag.
	if !c.FixedLen(len(x.order), 3, "ASes") {
		return
	}
	for _, name := range x.order {
		b := x.ASes[name]
		gotName := name
		c.Str(&gotName)
		seed := c.U64(b.Cfg.Seed)
		plain := c.Has(b.Cfg.PlainIP)
		if !c.Loaded() {
			continue
		}
		switch {
		case gotName != name:
			c.Mismatch("AS %q, checkpoint %q", name, gotName)
		case seed != b.Cfg.Seed:
			c.Mismatch("AS %q seed %d, checkpoint %d", name, b.Cfg.Seed, seed)
		case plain != b.Cfg.PlainIP:
			c.Mismatch("AS %q PlainIP=%v, checkpoint %v", name, b.Cfg.PlainIP, plain)
		case !b.built:
			c.Mismatch("restore before BuildProvider of AS %q", name)
		}
	}
}

// asSetState walks a set of member-AS names; a load refuses a name the
// scenario does not have.
func (x *InterAS) asSetState(c *snapshot.Codec, set *map[string]bool) {
	snapshot.Set(c, set, cmp.Compare[string], 1, (*snapshot.Codec).Str)
	if c.Loaded() {
		for name := range *set {
			if _, ok := x.ASes[name]; !ok {
				c.Mismatch("AS %q not in scenario", name)
			}
		}
	}
}

// The teardown references of an install: a name, a node and a label or
// prefix each, so three bytes at least.

func ilmRefsState(c *snapshot.Codec, refs *[]ilmRef) {
	snapshot.Slice(c, refs, 3, func(c *snapshot.Codec, i *ilmRef) {
		c.Str(&i.as)
		snapshot.Int(c, &i.node)
		snapshot.Uint(c, &i.label)
	})
}

func ftnRefsState(c *snapshot.Codec, refs *[]ftnRef) {
	snapshot.Slice(c, refs, 2+addr.PrefixMin, func(c *snapshot.Codec, f *ftnRef) {
		c.Str(&f.as)
		snapshot.Int(c, &f.node)
		addr.PrefixState(c, &f.fec)
	})
}

func stitchKeyState(c *snapshot.Codec, sk *stitchKey) {
	snapshot.Int(c, &sk.peering)
	c.Str(&sk.from)
	snapshot.Int(c, &sk.target)
}

func installState(c *snapshot.Codec, inst *originInstall) {
	snapshot.Slice(c, &inst.hops, 3, func(c *snapshot.Codec, h *hopRef) {
		snapshot.Int(c, &h.peering)
		c.Str(&h.from)
		c.Str(&h.to)
	})
	ilmRefsState(c, &inst.ilms)
	ftnRefsState(c, &inst.ftns)
	snapshot.Slice(c, &inst.exts, 3+addr.PrefixMin, func(c *snapshot.Codec, e *extRef) {
		c.Str(&e.as)
		snapshot.Int(c, &e.node)
		addr.PrefixState(c, &e.prefix)
		c.Str(&e.site)
	})
	snapshot.Slice(c, &inst.routes, 2+addr.VPNPrefixMin, func(c *snapshot.Codec, rt *routeRef) {
		c.Str(&rt.as)
		snapshot.Int(c, &rt.node)
		addr.VPNPrefixState(c, &rt.prefix)
	})
	snapshot.Slice(c, &inst.access, 3, func(c *snapshot.Codec, a *accessRef) {
		c.Str(&a.as)
		snapshot.Int(c, &a.node)
		snapshot.Int(c, &a.link)
	})
	snapshot.Slice(c, &inst.stitchK, 3, stitchKeyState)
}

// planeState walks the peering plane: failure sets, counters, session state
// machines, installed (VPN, origin) trees with their teardown records, and
// the refcounted stitch cache. A load discards the rebuild's own plane state
// (from the builder's ReconcilePeerings) in favour of the checkpoint's.
func (x *InterAS) planeState(c *snapshot.Codec) {
	pl := x.plane()
	x.asSetState(c, &pl.failed)
	x.asSetState(c, &pl.restoring)

	snapshot.Int(c, &pl.stats.PeeringFlaps)
	snapshot.Int(c, &pl.stats.PeeringRestores)
	snapshot.Int(c, &pl.stats.Failovers)
	snapshot.Int(c, &pl.stats.Reinstalls)
	snapshot.Int(c, &pl.stats.Partitioned)

	c.Same(pl.surv != nil, "inter-AS survivability")

	// A peering is three varints and two flags.
	if !c.FixedLen(len(pl.peerings), 5, "peerings") {
		return
	}
	for _, p := range pl.peerings {
		snapshot.Int(c, &p.state)
		snapshot.Int(c, &p.misses)
		snapshot.Int(c, &p.grDeadline)
		c.Bool(&p.down)
		c.Bool(&p.cut)
	}

	// An install is its two-name key and seven lists.
	snapshot.MapPtrs(c, &pl.installs, func(a, b originKey) int {
		return cmp.Or(cmp.Compare(a.vpn, b.vpn), cmp.Compare(a.origin, b.origin))
	}, 2+7, func(c *snapshot.Codec, k *originKey) {
		c.Str(&k.vpn)
		c.Str(&k.origin)
	}, installState)

	// A stitch is its three-field key, a refcount, a label and two lists.
	snapshot.MapPtrs(c, &pl.stitches, func(a, b stitchKey) int {
		return cmp.Or(cmp.Compare(a.peering, b.peering), cmp.Compare(a.from, b.from), cmp.Compare(a.target, b.target))
	}, 3+4, stitchKeyState, func(c *snapshot.Codec, rec *stitchRec) {
		snapshot.Int(c, &rec.count)
		snapshot.Uint(c, &rec.tn)
		ilmRefsState(c, &rec.ilms)
		ftnRefsState(c, &rec.ftns)
	})
}
