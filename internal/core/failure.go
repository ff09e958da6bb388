package core

import (
	"fmt"
	"slices"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/device"
	"mplsvpn/internal/ldp"
	"mplsvpn/internal/mpls"
	"mplsvpn/internal/ospf"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
	"mplsvpn/internal/topo"
)

// teRequest records an intent so TE LSPs can be re-signalled after a
// topology change.
type teRequest struct {
	// id is a stable, never-reused identity (monotone per backbone): retry
	// timers reference intents by id so a checkpoint can serialize the
	// pending timer and a restore can re-attach it to the rebuilt intent,
	// immune to the slice splicing TeardownTE performs.
	id              int
	name            string
	ingress, egress topo.NodeID
	vpn             string
	bandwidth       float64
	class           qos.Class
	opt             rsvp.SetupOptions

	// lsp is the currently-signalled instance of this intent (nil when the
	// last re-signal found no path). The SLA breach action reoptimizes
	// through it.
	lsp *rsvp.LSP

	// Resilience bookkeeping (EnableResilience): what the intent originally
	// asked for, whether it is running degraded, and the retry/backoff state.
	fullBandwidth float64
	fullClassType rsvp.ClassType
	degraded      bool
	attempts      int
	retryPending  bool

	// removed marks an intent torn down by TeardownTE: retry timers that
	// still hold a pointer to it must become no-ops instead of
	// resurrecting the LSP.
	removed bool
}

// linkPair is a direction-normalized link key for fault-state tracking.
type linkPair struct{ lo, hi topo.NodeID }

func pairKey(a, z topo.NodeID) linkPair {
	if a > z {
		a, z = z, a
	}
	return linkPair{a, z}
}

// journal is the nil-safe telemetry journal hook for fault events.
func (b *Backbone) journal(kind telemetry.EventKind, subject, detail string) {
	if b.tel != nil {
		b.tel.Journal.Record(b.E.Now(), kind, subject, detail)
	}
}

// journalTime journals a fault event whose detail formats one duration,
// and formats it only when the journal is on: fmt's printers come from a
// sync.Pool, so what a formatted string allocates depends on whether a
// collection has emptied the pool, and a fault with the journal off must
// allocate the same every time.
func (b *Backbone) journalTime(kind telemetry.EventKind, subject, format string, d sim.Time) {
	if b.tel != nil {
		b.tel.Journal.Record(b.E.Now(), kind, subject, fmt.Sprintf(format, d))
	}
}

// rejectOp journals a refused fault-injection call and returns its error,
// so chaos scripts can see which of their operations were no-ops.
func (b *Backbone) rejectOp(op, subject, reason string) error {
	b.journal(telemetry.EventOpRejected, subject, op+": "+reason)
	return fmt.Errorf("core: %s %s: %s", op, subject, reason)
}

// linkEndpoints resolves two node names to an existing link's endpoints
// without panicking.
func (b *Backbone) linkEndpoints(a, z string) (topo.NodeID, topo.NodeID, error) {
	na, ok := b.G.NodeByName(a)
	if !ok {
		return 0, 0, fmt.Errorf("unknown node %q", a)
	}
	nz, ok := b.G.NodeByName(z)
	if !ok {
		return 0, 0, fmt.Errorf("unknown node %q", z)
	}
	if _, ok := b.G.FindLink(na, nz); !ok {
		return 0, 0, fmt.Errorf("no link %s<->%s", a, z)
	}
	return na, nz, nil
}

// scheduleReconverge triggers provider reconvergence after the detection
// delay, subject to the control-plane loss model: a lost failure
// notification must be retransmitted, stretching the delay by ctrlExtra.
func (b *Backbone) scheduleReconverge(detect sim.Time) {
	if b.ctrlLoss > 0 && b.ctrlRng != nil && b.ctrlRng.Float64() < b.ctrlLoss {
		b.journalTime(telemetry.EventCtrlLoss, "ctrl", "notification lost; retransmit adds %v", b.ctrlExtra)
		detect += b.ctrlExtra
	}
	if detect == 0 {
		b.reconvergeProvider()
		return
	}
	b.after(detect, timerReconverge, 0, 0)
}

// SetControlPlaneLoss configures the control-plane message loss model:
// each reconvergence trigger is lost with probability prob, adding extra
// to its detection delay (the retransmission timeout). The random stream
// is forked from the engine's, so same-seed runs stay byte-identical.
func (b *Backbone) SetControlPlaneLoss(prob float64, extra sim.Time) {
	b.ctrlLoss, b.ctrlExtra = prob, extra
	if b.ctrlRng == nil {
		b.ctrlRng = b.E.Rand().Fork()
	}
}

// LocalRepairDelay is how quickly a point of local repair activates its
// FRR bypass after a link failure: loss-of-light detection plus a table
// rewrite, orders of magnitude faster than IGP-wide reconvergence.
const LocalRepairDelay = sim.Millisecond

// FailLink takes the link between two nodes down. The failure is detected
// and the control plane reconverges after detectDelay of virtual time
// (0 = immediately); until then traffic into the dead link is lost — the
// loss window E8 measures — unless FRR bypass tunnels absorb it within
// LocalRepairDelay. Unknown names, a missing link, or failing an
// already-failed link are rejected with an error and a journal entry.
func (b *Backbone) FailLink(a, z string, detectDelay sim.Time) error {
	subject := "link:" + a + "<->" + z
	na, nz, err := b.linkEndpoints(a, z)
	if err != nil {
		return b.rejectOp("fail", subject, err.Error())
	}
	key := pairKey(na, nz)
	if b.failedLinks[key] {
		return b.rejectOp("fail", subject, "already failed")
	}
	b.failedLinks[key] = true
	b.G.SetLinkDown(na, nz, true)
	b.noteLinkFlap(na, nz)
	b.journalTime(telemetry.EventLinkDown, subject, "detect %v", detectDelay)
	if b.Cfg.FRR && detectDelay > 0 {
		// Protection is never slower than reconvergence: the bypass
		// activates at min(detect, LocalRepairDelay), so even an
		// aggressively fast detection still goes through local repair.
		b.after(min(detectDelay, LocalRepairDelay), timerLocalRepair, uint64(na), uint64(nz))
	}
	b.scheduleReconverge(detectDelay)
	return nil
}

// localRepair detours the ILM entries of both endpoints around the failed
// fibre using the pre-signalled bypass tunnels.
func (b *Backbone) localRepair(a, z topo.NodeID) {
	for _, dir := range [][2]topo.NodeID{{a, z}, {z, a}} {
		l, ok := b.G.FindLink(dir[0], dir[1])
		if !ok || !l.Down { // restored before the repair fired: nothing to go around
			continue
		}
		byp, ok := b.bypasses[l.ID]
		if !ok || byp.State != rsvp.Up {
			continue
		}
		// The bypass must not itself traverse the failed fibre.
		usesFailed := false
		for _, lid := range byp.Path.Links {
			if b.G.Link(lid).Down {
				usesFailed = true
				break
			}
		}
		if usesFailed {
			continue
		}
		b.routers[dir[0]].LFIB.DetourVia(l.ID, byp.Entry.OutLabel, byp.Entry.OutLink)
	}
}

// RestoreLink brings a failed link back and reconverges after detectDelay.
// Restoring a link that was never failed, or whose endpoint router is
// crashed, is rejected with an error and a journal entry.
func (b *Backbone) RestoreLink(a, z string, detectDelay sim.Time) error {
	subject := "link:" + a + "<->" + z
	na, nz, err := b.linkEndpoints(a, z)
	if err != nil {
		return b.rejectOp("restore", subject, err.Error())
	}
	key := pairKey(na, nz)
	if !b.failedLinks[key] {
		return b.rejectOp("restore", subject, "not failed")
	}
	if b.nodeDown[na] || b.nodeDown[nz] {
		return b.rejectOp("restore", subject, "endpoint router is down")
	}
	delete(b.failedLinks, key)
	b.G.SetLinkDown(na, nz, false)
	b.noteLinkFlap(na, nz)
	b.journalTime(telemetry.EventLinkUp, subject, "detect %v", detectDelay)
	b.scheduleReconverge(detectDelay)
	return nil
}

// CrashNode takes a provider router down. Without graceful restart the
// crash is hard: every incident link drops in both directions and the
// router's forwarding state (LFIB, FTN, TE steering) is wiped — a crashed
// box forgets everything — and the surviving network reconverges after
// detectDelay. With the survivability layer's graceful restart on, only
// the control plane dies: links stay up and forwarding state is preserved
// (RFC 4724's forwarding-state bit), while the hello state machine flaps
// the box's sessions and starts the restart timer.
func (b *Backbone) CrashNode(name string, detectDelay sim.Time) error {
	subject := "node:" + name
	id, ok := b.G.NodeByName(name)
	if !ok {
		return b.rejectOp("crash", subject, "unknown node")
	}
	r, isRouter := b.routers[id]
	if !isRouter || (r.Kind != device.PE && r.Kind != device.P) {
		return b.rejectOp("crash", subject, "not a provider router")
	}
	if b.nodeDown[id] || b.ctrlDown[id] {
		return b.rejectOp("crash", subject, "already down")
	}
	if b.surv != nil && b.surv.opt.GracefulRestart {
		b.ctrlDown[id] = true
		b.journal(telemetry.EventNodeDown, subject,
			"control plane down; graceful restart preserves forwarding state")
		return nil
	}
	b.hardCrashNode(id)
	b.journalTime(telemetry.EventNodeDown, subject, "detect %v", detectDelay)
	b.scheduleReconverge(detectDelay)
	return nil
}

// noteLinkFlap records a single-link topology event for the delta paths:
// queued for the IGP's incremental SPF at the next reconvergence, and
// folded immediately into the cached TE plain-path trees.
func (b *Backbone) noteLinkFlap(a, z topo.NodeID) {
	b.pendingLinks = append(b.pendingLinks, pairKey(a, z))
	b.applyTELinkChange(a, z)
}

// hardCrashNode applies the data-plane consequences of a hard crash: all
// incident links down, forwarding state wiped.
func (b *Backbone) hardCrashNode(id topo.NodeID) {
	b.nodeDown[id] = true
	b.pendingFull = true
	b.dropTECache()
	for i := 0; i < b.G.NumLinks(); i++ {
		l := b.G.Link(topo.LinkID(i))
		if l.From == id || l.To == id {
			b.G.SetDown(l.ID, true)
		}
	}
	r := b.routers[id]
	r.LFIB = mpls.NewLFIB()
	r.FTN = mpls.NewFTN()
	for k := range r.TE {
		r.DeleteTE(k)
	}
}

// RestartNode brings a crashed router back: incident links come up unless
// the far endpoint is still down or the fibre was independently failed,
// and the control plane rebuilds the node's tables from scratch after
// detectDelay (the restart's convergence time).
func (b *Backbone) RestartNode(name string, detectDelay sim.Time) error {
	subject := "node:" + name
	id, ok := b.G.NodeByName(name)
	if !ok {
		return b.rejectOp("restart", subject, "unknown node")
	}
	if b.ctrlDown[id] {
		// Control-plane-only crash (graceful restart): nothing to rebuild —
		// forwarding state never left. The hello state machine notices the
		// recovery and re-establishes sessions.
		delete(b.ctrlDown, id)
		b.journal(telemetry.EventNodeUp, subject,
			"control plane restarted; awaiting session re-establishment")
		return nil
	}
	if !b.nodeDown[id] {
		return b.rejectOp("restart", subject, "not down")
	}
	delete(b.nodeDown, id)
	b.pendingFull = true
	b.dropTECache()
	for i := 0; i < b.G.NumLinks(); i++ {
		l := b.G.Link(topo.LinkID(i))
		if l.From != id && l.To != id {
			continue
		}
		other := l.From
		if other == id {
			other = l.To
		}
		if b.nodeDown[other] || b.failedLinks[pairKey(id, other)] {
			continue
		}
		b.G.SetDown(l.ID, false)
	}
	b.journalTime(telemetry.EventNodeUp, subject, "detect %v", detectDelay)
	b.scheduleReconverge(detectDelay)
	return nil
}

// CutSiteAttachment severs a site's access link (backhoe through the last
// mile). The provider core does not reconverge — access links are outside
// the IGP — so the site is simply unreachable until restored.
func (b *Backbone) CutSiteAttachment(site string) error {
	subject := "site:" + site
	rec, ok := b.sites[site]
	if !ok {
		return b.rejectOp("cut", subject, "unknown site")
	}
	if b.cutSites[site] {
		return b.rejectOp("cut", subject, "already cut")
	}
	b.cutSites[site] = true
	b.G.SetLinkDown(rec.CE, rec.PE, true)
	b.journal(telemetry.EventLinkDown, subject, "attachment cut")
	return nil
}

// RestoreSiteAttachment re-splices a cut site attachment.
func (b *Backbone) RestoreSiteAttachment(site string) error {
	subject := "site:" + site
	rec, ok := b.sites[site]
	if !ok {
		return b.rejectOp("uncut", subject, "unknown site")
	}
	if !b.cutSites[site] {
		return b.rejectOp("uncut", subject, "not cut")
	}
	delete(b.cutSites, site)
	if !b.nodeDown[rec.PE] {
		b.G.SetLinkDown(rec.CE, rec.PE, false)
	}
	b.journal(telemetry.EventLinkUp, subject, "attachment restored")
	return nil
}

// signalBypasses keeps an FRR bypass around every up core link (both
// directions) when the FRR policy is on: the detour around the protected
// fibre is recomputed, a bypass already on it is kept as it stands — unless
// it crosses a flapped link, where local repair may have rewritten its
// entries — any other is replaced, and a dead link's is withdrawn. Links
// with no alternative path simply go unprotected.
func (b *Backbone) signalBypasses(flapped []linkPair) {
	if !b.Cfg.FRR || b.RSVP == nil {
		return
	}
	if b.bypasses == nil {
		b.bypasses = make(map[topo.LinkID]*rsvp.LSP)
	}
	for i := 0; i < b.G.NumLinks(); i++ {
		lid := topo.LinkID(i)
		l := b.G.Link(lid)
		if !b.isProvider(l.From) || !b.isProvider(l.To) {
			continue
		}
		held := b.bypasses[lid]
		if held != nil && (l.Down || b.crossesAny(held.Path, flapped)) {
			b.RSVP.Release(held.ID, false)
			delete(b.bypasses, lid)
			held = nil
		}
		if l.Down {
			continue
		}
		byp, err := b.RSVP.SetupBypass("bypass-"+b.G.Name(l.From)+"-"+b.G.Name(l.To), lid, held)
		if err != nil {
			delete(b.bypasses, lid)
			continue
		}
		b.bypasses[lid] = byp
	}
}

// reconvergeDetected is a detection timer firing. Every fault entry point
// records its cause before arming one, so a timer that finds none queued was
// overtaken: an earlier timer, armed by a fault whose detection window
// overlapped this one's, already reconverged for both. It is a journalled
// no-op, not the full rebuild a causeless reconvergeProvider call means.
func (b *Backbone) reconvergeDetected() {
	if len(b.pendingLinks) == 0 && !b.pendingFull {
		b.journal(telemetry.EventReconverged, "provider", "nothing queued: an overlapping detection window already reconverged")
		return
	}
	b.reconvergeProvider()
}

// reconvergeProvider brings the interior control plane in line with the
// current topology, on one of two branches.
//
// Incremental — every queued event is a single-link flap (and the data
// plane is MPLS): the IGP folds each flap in through NotifyLinkChange, and
// the label plane follows by delta. b.LDP, every router's LFIB and FTN,
// every LDP label and every VPN egress ILM entry stay; LDP re-derives only
// the (router, FEC) pairs the IGP reports as changed plus every FEC at the
// flapped links' endpoints (ldp.ApplyIGPDelta), and the provider IP tables
// take the same changed set. No label value changes, so a packet in flight
// keeps being switched.
//
// Full — node crash or restart, AS failure, PlainIP, or a direct call with
// no tracked cause: full IGP flood, fresh LFIB/FTN on every router, a fresh
// LDP instance flooded from nothing, VPN egress labels re-bound from the
// provisioning records, IP tables rebuilt. Labels are allocated anew. It
// is the oracle the incremental branch is tested against, as ospf.Converge
// is for NotifyLinkChange.
//
// TE follows on the one long-lived RSVP instance (resignalTE): a delta on
// the incremental branch — intents the flaps did not touch keep LSP, labels,
// reservation and steering entry — and every intent re-signalled on the full
// one, whose tables RSVP was just rebound to.
func (b *Backbone) reconvergeProvider() {
	// PlainIP mode always rebuilds: customer prefixes live in the provider
	// IP tables with SPF-derived next-hops, and only installPlainRoutes
	// knows how to refresh them.
	incremental := !b.Cfg.PlainIP && !b.pendingFull && len(b.pendingLinks) > 0
	if incremental {
		b.reconvergeLinkFlaps()
	} else {
		b.reconvergeFull()
	}
	if !b.Cfg.PlainIP {
		b.resignalTE(b.pendingLinks, !incremental)
	}
	b.pendingLinks = b.pendingLinks[:0]
	b.pendingFull = false

	// Layered planes (inter-AS boundary state) re-derive what they captured
	// from the label tables: transport labels may have moved with the next
	// hops, and the full branch dropped their bindings outright.
	for _, fn := range b.onReconverged {
		fn()
	}
}

// flapScratch holds what reconvergeLinkFlaps and resignalTE rebuild on
// every fault, emptied and refilled each time.
type flapScratch struct {
	flapped [][2]topo.NodeID
	dests   []topo.NodeID                 // every router's changed destinations, end to end
	changed map[topo.NodeID][]topo.NodeID // router -> its run of dests
	plan    []uint8
	targets []*topo.Path
	paths   []topo.Path // what targets point at, each keeping its array
	load    map[topo.LinkID][rsvp.NumClassTypes]float64
}

// reuse returns *buf resized to n zero elements, keeping its array when it
// is large enough.
func reuse[T any](buf *[]T, n int) []T {
	s := slices.Grow((*buf)[:0], n)[:n]
	clear(s)
	*buf = s
	return s
}

// reconvergeLinkFlaps is the incremental branch: IGP, label plane and IP
// tables each take the delta of the queued link flaps.
func (b *Backbone) reconvergeLinkFlaps() {
	sc := &b.flapScratch
	sc.flapped = sc.flapped[:0]
	for _, p := range b.pendingLinks {
		b.IGP.NotifyLinkChange(p.lo, p.hi)
		sc.flapped = append(sc.flapped, [2]topo.NodeID{p.lo, p.hi})
	}
	if sc.changed == nil {
		sc.changed = make(map[topo.NodeID][]topo.NodeID)
	}
	clear(sc.changed)
	sc.dests = sc.dests[:0]
	for _, n := range b.providerNodes {
		inst := b.IGP.Instance(n)
		from := len(sc.dests)
		sc.dests = inst.AppendChangedDests(sc.dests)
		if len(sc.dests) == from {
			continue
		}
		// A run outlives a later append moving sc.dests: the old array
		// keeps it.
		dests := sc.dests[from:len(sc.dests):len(sc.dests)]
		sc.changed[n] = dests
		r := b.routers[n]
		for _, d := range dests {
			pfx := addr.HostPrefix(ospf.Loopback(d))
			if rt, ok := inst.RouteTo(d); ok {
				r.IPTable.Insert(pfx, rt.NextHop)
			} else {
				r.IPTable.Delete(pfx)
			}
		}
	}
	b.LDP.ApplyIGPDelta(sc.flapped, sc.changed)
}

// reconvergeFull is the full branch: everything below the TE layer is
// rebuilt from the current topology.
func (b *Backbone) reconvergeFull() {
	b.IGP.Converge()

	if !b.Cfg.PlainIP {
		lfibs := make(map[topo.NodeID]*mpls.LFIB, len(b.providerNodes))
		for _, n := range b.providerNodes {
			r := b.routers[n]
			r.LFIB = mpls.NewLFIB()
			r.FTN = mpls.NewFTN()
			lfibs[n] = r.LFIB
		}
		b.RSVP.Rebind(lfibs)
		b.LDP = ldp.NewOver(b.G, b.IGP, b.providerNodes)
		if b.Cfg.LDPIndependent {
			b.LDP.Mode = ldp.Independent
		}
		b.LDP.DisablePHP = b.Cfg.DisablePHP
		for _, n := range b.providerNodes {
			r := b.routers[n]
			b.LDP.UseTables(n, b.allocs[n], r.LFIB, r.FTN)
		}
		b.LDP.Converge()
		// Carry session state over to the rebuilt protocol instance so the
		// hello state machine's view survives the reconvergence.
		if b.surv != nil {
			for _, n := range b.providerNodes {
				switch b.surv.stateOf(n) {
				case sessDown:
					b.LDP.MarkSession(n, ldp.SessionDownState)
				case sessRestarting:
					b.LDP.MarkSession(n, ldp.SessionRestarting)
				}
			}
		}

		// VPN egress labels back into the fresh LFIBs.
		for _, rec := range b.sites {
			pe := b.routers[rec.PE]
			for _, l := range rec.labels {
				pe.LFIB.BindILM(l, mpls.NHLFE{Op: mpls.OpPop, OutLink: rec.peToCE})
			}
			for _, l := range rec.backupLabels {
				b.routers[rec.backupPE].LFIB.BindILM(l, mpls.NHLFE{Op: mpls.OpPop, OutLink: rec.backupPEToCE})
			}
		}
	}

	// Global IP routes to provider loopbacks, and a drain of the change
	// ledgers so a later incremental pass does not replay stale deltas.
	for _, n := range b.providerNodes {
		r := b.routers[n]
		inst := b.IGP.Instance(n)
		inst.DropChangedDests()
		r.IPTable = addr.NewTable[topo.LinkID]()
		for _, rt := range inst.Routes() {
			r.IPTable.Insert(addr.HostPrefix(ospf.Loopback(rt.Dest)), rt.NextHop)
		}
	}
	if b.Cfg.PlainIP {
		for _, rec := range b.sites {
			b.installPlainRoutes(rec)
		}
	}
}

// teTargets reads every intent's target path — the canonical unconstrained
// shortest path over the provider routers, from the per-ingress trees the
// link flaps already updated — and decides whether re-signalling only the
// intents off their targets provably equals re-signalling all of them in
// order. It does when each intent leaves path choice to CSPF, none can
// preempt another, and all targets together fit every link and DS-TE pool
// beside whatever else is reserved there: then at every step of the ordered
// sweep each target survives bandwidth pruning, the lowest-link tie-break
// picks the same in-edges in the pruned graph as in the whole one, and the
// sweep ends with every intent on its target whatever the order. When it
// does not, sweep names why (for the counters) and targets is nil.
func (b *Backbone) teTargets() (targets []*topo.Path, sweep string) {
	for _, req := range b.teRequests {
		first := b.teRequests[0].opt
		switch {
		case req.opt.Explicit != nil:
			return nil, "explicit"
		case len(req.opt.Avoid) > 0:
			return nil, "avoid"
		case req.opt.SetupPri != first.SetupPri || req.opt.HoldPri != first.HoldPri:
			return nil, "priority"
		}
	}
	// load is what each link's ledgers would gain, per class type, were
	// every intent moved from the LSP it holds to its target.
	sc := &b.flapScratch
	targets = reuse(&sc.targets, len(b.teRequests))
	// Not reuse: the paths keep their arrays from one fault to the next.
	sc.paths = slices.Grow(sc.paths[:0], len(b.teRequests))[:len(b.teRequests)]
	if sc.load == nil {
		sc.load = make(map[topo.LinkID][rsvp.NumClassTypes]float64)
	}
	load := sc.load
	clear(load)
	add := func(lid topo.LinkID, ct rsvp.ClassType, bw float64) {
		g := load[lid]
		g[ct] += bw
		load[lid] = g
	}
	for i, req := range b.teRequests {
		if l := req.lsp; l != nil && l.State == rsvp.Up {
			for _, lid := range l.Path.Links {
				add(lid, l.ClassType, -l.Bandwidth)
			}
		}
		path := &sc.paths[i]
		var ok bool
		if path.Links, ok = b.plainSPF(req.ingress).AppendPathTo(path.Links[:0], b.G, req.egress); ok {
			targets[i] = path
			for _, lid := range path.Links {
				add(lid, req.opt.ClassType, req.bandwidth)
			}
		}
	}
	for lid, gain := range load {
		l, total := b.G.Link(lid), 0.0
		for ct, d := range gain {
			total += d
			if ds := b.RSVP.DSTE; ds != nil && d > 0 && ds.Reserved(lid, rsvp.ClassType(ct))+d > ds.BC[ct]*l.Bandwidth {
				return nil, "fit"
			}
		}
		if total > 0 && l.ReservedBw+total > l.Bandwidth {
			return nil, "fit"
		}
	}
	return targets, ""
}

// crossesAny reports whether the path runs over one of the fibres, either way.
func (b *Backbone) crossesAny(path topo.Path, pairs []linkPair) bool {
	return len(pairs) > 0 && slices.ContainsFunc(path.Links, func(lid topo.LinkID) bool {
		l := b.G.Link(lid)
		return slices.Contains(pairs, pairKey(l.From, l.To))
	})
}

// resignalTE brings the TE intents in line with the topology, on the RSVP
// instance that lives as long as the backbone. An intent is dirty when it
// holds no Up LSP, when its LSP is not what it would be signalled as now — off
// its target path (a path over a dead link always is), or at another
// bandwidth or class type — and when its path crosses a link that flapped
// since the last reconvergence, even one back up and on the target: FRR local
// repair rewrote the entries leaving it (LFIB.DetourVia) and nothing undoes
// that, so new labels are bound, as LDP re-derives flapped endpoints
// unconditionally. Dirty intents give up their reservations together, then
// are signalled in intent order against the ledger none of them holds; one
// whose old path still forwards moves make-before-break (its labels drain, its
// ingress entry is repointed within this same event), one over a dead link is
// torn down and set up, one with no path falls back to the LDP LSP — and, with
// resilience on, enters the retry queue. Clean intents are not touched. The
// full sweep is this function with every intent dirty: after a rebuild, or
// when teTargets cannot vouch for the delta.
func (b *Backbone) resignalTE(flapped []linkPair, rebuilt bool) {
	var targets []*topo.Path
	sweep := "rebuild"
	if !rebuilt {
		targets, sweep = b.teTargets()
	}
	const (
		clean = iota
		move
		setup
	)
	st := TEResignalStats{Reconvergences: 1}
	plan := reuse(&b.flapScratch.plan, len(b.teRequests))
	for i, req := range b.teRequests {
		l := req.lsp
		up := l != nil && l.State == rsvp.Up
		if up && sweep == "" && targets[i] != nil && slices.Equal(l.Path.Links, targets[i].Links) &&
			l.Bandwidth == req.bandwidth && l.ClassType == req.opt.ClassType && !b.crossesAny(l.Path, flapped) {
			st.Kept++
			continue
		}
		plan[i] = setup
		b.routers[req.ingress].DeleteTE(teKeyFor(req))
		if !up {
			continue
		}
		forwards := !slices.ContainsFunc(l.Path.Links, func(lid topo.LinkID) bool { return b.G.Link(lid).Down })
		b.RSVP.Release(l.ID, forwards)
		if forwards {
			plan[i] = move
		}
	}
	for i, req := range b.teRequests {
		if plan[i] != clean {
			l, err := b.RSVP.Setup(req.name, req.ingress, req.egress, req.bandwidth, req.opt)
			if err != nil {
				// No path with capacity: fall back to the LDP LSP. With
				// resilience on, the intent also enters the retry queue so
				// it re-signals when capacity returns.
				req.lsp = nil
				st.Failed++
				b.teSignalFailed(req)
				continue
			}
			req.lsp = l
			if plan[i] == move {
				st.Moved++
			} else {
				st.Resetup++
			}
		}
		// In intent order, clean and dirty alike: where two intents steer
		// the same traffic, the later one's entry stands, as in the sweep.
		b.routers[req.ingress].SetTE(teKeyFor(req), req.lsp.Entry)
	}
	b.signalBypasses(flapped)
	b.noteTEResignal(st, sweep)
}
