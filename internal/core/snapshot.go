// Checkpoint/restore orchestration: Snapshot serializes the backbone's full
// dynamic state — control plane, forwarding tables, in-flight packets,
// traffic sources, telemetry, and every pending timer — and Restore overlays
// it onto a freshly rebuilt scenario.
//
// The architecture is "dynamic-state delta over a deterministic rebuild":
// a snapshot does not serialize topology, policy, or wiring (closures,
// telemetry hooks, schedulers). The restore path re-runs the original
// scenario builder, which re-creates all of that byte-identically, then
// kills the setup events the original run had already executed, overlays
// the serialized dynamic state, and re-arms the dynamic timers with their
// original (time, seq) identities so the event order — and therefore the
// StateDigest, journal, and flow statistics — continues exactly as an
// uninterrupted run's would.
//
// Protocol, on the original run:
//
//	build scenario; b.E.MarkSetup(); run to T; data, err := b.Snapshot(fp)
//
// and on resume:
//
//	rebuild the same scenario; err := b.Restore(data, fp); run onward
//
// Dynamically provisioned sites are assumed to be part of the rebuild
// (provisioning is setup). AIMD bulk sources checkpoint like paced ones:
// their congestion state serializes and the single pending RTO probe
// re-arms through the source registry. Request/response sources still
// schedule untagged closures and make a snapshot fail strictly rather
// than silently dropping their timers.
package core

import (
	"fmt"
	"sort"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

// Tag kinds for the dynamically scheduled control-plane closures. A pending
// tagged event serializes as (kind, A, B) and the restore re-arms it by
// rebuilding the closure from the tag.
const (
	// tagReconverge is a pending provider reconvergence (no operands).
	tagReconverge uint16 = iota + 1
	// tagLocalRepair is a pending FRR activation; A and B are the failed
	// link's endpoint node IDs.
	tagLocalRepair
	// tagTERetry is a pending TE re-signal; A is the intent's stable id.
	tagTERetry
	// tagDrain is a pending make-before-break drain; A is the drain id.
	tagDrain
)

// tagKindMask extracts the event kind from a Tag.Kind whose high bits carry
// the backbone's tag domain (its AS index in a multi-provider simulation).
const tagKindMask uint16 = 0x000F

// tag builds a control-plane event tag stamped with this backbone's domain,
// so a shared-engine (inter-AS) snapshot can re-arm the event on the right
// AS. Standalone backbones have domain 0 and the Kind is the bare constant.
func (b *Backbone) tag(kind uint16, a, z uint64) sim.Tag {
	return sim.Tag{Kind: kind | b.tagDomain<<4, A: a, B: z}
}

// RegisterSource records a checkpointable traffic source in creation order.
// A snapshot identifies a source's pending self-repost event through this
// registry and a restore re-arms it on the rebuilt source, so every source
// that runs across a checkpoint boundary must be registered — in the same
// order — by both the original builder and the rebuild.
func (b *Backbone) RegisterSource(s trafgen.Source) trafgen.Source {
	if b.srcIndex == nil {
		b.srcIndex = make(map[sim.Action]int)
	}
	if _, dup := b.srcIndex[s]; dup {
		return s
	}
	b.srcIndex[s] = len(b.sources)
	b.sources = append(b.sources, s)
	return s
}

// Section names of the checkpoint container, in file order.
const (
	secManifest  = "manifest"
	secEngine    = "engine"
	secPending   = "pending"
	secTopo      = "topo"
	secIGP       = "igp"
	secLabels    = "labels"
	secBGP       = "bgp"
	secRouters   = "routers"
	secCore      = "core"
	secRegistry  = "registry"
	secNet       = "net"
	secFlows     = "flows"
	secSources   = "sources"
	secTelemetry = "telemetry"
)

// pendingTagged is one serialized dynamic timer awaiting re-arm.
type pendingTagged struct {
	shard int
	at    sim.Time
	seq   uint64
	tag   sim.Tag
}

// pendingSource is one serialized traffic-source repost awaiting re-arm.
type pendingSource struct {
	idx   int
	shard int
	at    sim.Time
	seq   uint64
}

// Snapshot serializes the backbone's dynamic state at the current virtual
// time. scenario is the caller's fingerprint of the scenario construction
// (builder name, parameters, shard count); Restore refuses a checkpoint
// whose fingerprint differs. The builder must have called b.E.MarkSetup()
// after construction, or every pre-scheduled scan and tick is misclassified
// as unserializable.
func (b *Backbone) Snapshot(scenario string) ([]byte, error) {
	if !b.built {
		return nil, fmt.Errorf("core: snapshot before BuildProvider")
	}

	f := snapshot.NewFile()
	scheds := b.E.Schedulers()

	var w snapshot.Writer
	w.Str(scenario)
	w.U64(b.Cfg.Seed)
	w.I64(int64(b.E.Now()))
	w.U64(uint64(len(scheds)))
	w.Bool(b.Cfg.PlainIP)
	f.Add(secManifest, w.Data())

	w = snapshot.Writer{}
	saveSchedState(&w, b.E)
	b.saveAuxRngs(&w)
	f.Add(secEngine, w.Data())

	pending, err := b.classifyPending()
	if err != nil {
		return nil, err
	}
	f.Add(secPending, pending)

	f.Add(secTopo, saveTopoState(b.G))

	b.addControlSections(f, "")

	w = snapshot.Writer{}
	b.Net.SaveState(&w)
	f.Add(secNet, w.Data())

	b.addTrafficSections(f, "")

	return f.Encode(), nil
}

// saveSchedState serializes the engine's scheduler clocks/sequence counters
// and the engine-wide random stream — the state shared by every backbone on
// the engine.
func saveSchedState(w *snapshot.Writer, e *sim.Engine) {
	for _, s := range e.Schedulers() {
		w.I64(int64(s))
		w.I64(int64(e.ClockOf(s)))
		w.U64(e.Seq(s))
		w.U64(e.ExecutedOn(s))
	}
	w.U64(e.Rand().State())
}

// loadSchedState is the decode side of saveSchedState.
func loadSchedState(r *snapshot.Reader, e *sim.Engine) error {
	for range e.Schedulers() {
		s := int(r.I64())
		clock := sim.Time(r.I64())
		seq := r.U64()
		executed := r.U64()
		if r.Err() != nil {
			return r.Err()
		}
		e.RestoreClock(s, clock)
		e.RestoreSeq(s, seq)
		e.RestoreExecuted(s, executed)
	}
	e.Rand().SetState(r.U64())
	return r.Err()
}

// saveAuxRngs serializes the backbone's forked random streams (control-plane
// loss, TE retry jitter).
func (b *Backbone) saveAuxRngs(w *snapshot.Writer) {
	w.Bool(b.ctrlRng != nil)
	if b.ctrlRng != nil {
		w.U64(b.ctrlRng.State())
	}
	w.Bool(b.res != nil)
	if b.res != nil {
		w.U64(b.res.rng.State())
	}
}

// loadAuxRngs is the decode side of saveAuxRngs.
func (b *Backbone) loadAuxRngs(r *snapshot.Reader) error {
	hasCtrl := r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	if hasCtrl {
		if b.ctrlRng == nil {
			return fmt.Errorf("%w: control-plane loss rng in checkpoint but not in scenario", snapshot.ErrMismatch)
		}
		b.ctrlRng.SetState(r.U64())
	}
	hasRes := r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	if hasRes != (b.res != nil) {
		return fmt.Errorf("%w: resilience in checkpoint=%v, scenario=%v", snapshot.ErrMismatch, hasRes, b.res != nil)
	}
	if b.res != nil {
		b.res.rng.SetState(r.U64())
	}
	return r.Err()
}

// saveTopoState serializes the graph's dynamic link state.
func saveTopoState(g *topo.Graph) []byte {
	var w snapshot.Writer
	w.U64(uint64(g.NumLinks()))
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topo.LinkID(i))
		w.Bool(l.Down)
		w.F64(l.ReservedBw)
	}
	return w.Data()
}

// loadTopoState is the decode side of saveTopoState.
func loadTopoState(r *snapshot.Reader, g *topo.Graph) error {
	nl := r.Count(9)
	if nl != g.NumLinks() {
		return fmt.Errorf("%w: %d links in checkpoint, %d in scenario", snapshot.ErrMismatch, nl, g.NumLinks())
	}
	for i := 0; i < nl; i++ {
		g.SetDown(topo.LinkID(i), r.Bool())
		g.Link(topo.LinkID(i)).ReservedBw = r.F64()
	}
	return r.Err()
}

// addControlSections emits the backbone's control-plane sections (IGP,
// label plane, BGP, routers, core bookkeeping, registry) under a section
// name prefix — empty for a standalone snapshot, "<as>/" per AS in an
// inter-AS one.
func (b *Backbone) addControlSections(f *snapshot.File, prefix string) {
	var w snapshot.Writer
	b.IGP.SaveState(&w)
	f.Add(prefix+secIGP, w.Data())

	w = snapshot.Writer{}
	nodes := sortedNodeIDs(b.allocs)
	w.U64(uint64(len(nodes)))
	for _, n := range nodes {
		w.I64(int64(n))
		b.allocs[n].SaveState(&w)
	}
	w.Bool(b.LDP != nil)
	if b.LDP != nil {
		b.LDP.SaveState(&w)
	}
	w.Bool(b.RSVP != nil)
	if b.RSVP != nil {
		b.RSVP.SaveState(&w)
	}
	f.Add(prefix+secLabels, w.Data())

	w = snapshot.Writer{}
	b.BGP.SaveState(&w)
	f.Add(prefix+secBGP, w.Data())

	w = snapshot.Writer{}
	rnodes := sortedNodeIDs(b.routers)
	w.U64(uint64(len(rnodes)))
	for _, n := range rnodes {
		w.I64(int64(n))
		b.routers[n].SaveState(&w)
	}
	f.Add(prefix+secRouters, w.Data())

	w = snapshot.Writer{}
	b.saveCoreState(&w)
	f.Add(prefix+secCore, w.Data())

	w = snapshot.Writer{}
	b.Registry.SaveState(&w)
	f.Add(prefix+secRegistry, w.Data())
}

// addTrafficSections emits the backbone's traffic-plane sections (flow
// stats, sources, telemetry) under a section name prefix.
func (b *Backbone) addTrafficSections(f *snapshot.File, prefix string) {
	var w snapshot.Writer
	keys := make([]packet.FlowKey, 0, len(b.flows))
	for k := range b.flows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return flowKeyLess(keys[i], keys[j]) })
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		saveFlowKey(&w, k)
		b.flows[k].SaveState(&w)
	}
	f.Add(prefix+secFlows, w.Data())

	w = snapshot.Writer{}
	w.U64(uint64(len(b.sources)))
	for _, s := range b.sources {
		s.SaveState(&w)
	}
	f.Add(prefix+secSources, w.Data())

	w = snapshot.Writer{}
	w.Bool(b.tel != nil)
	if b.tel != nil {
		b.tel.Reg.SaveState(&w)
		b.tel.Journal.SaveState(&w)
		b.tel.Flows.SaveState(&w)
		w.Bool(b.tel.Watcher != nil)
		if b.tel.Watcher != nil {
			b.tel.Watcher.SaveState(&w)
		}
	}
	f.Add(prefix+secTelemetry, w.Data())
}

// classifyPending walks the event heaps and serializes every pending event
// by class: setup events as (shard, seq) keep-entries, tagged control-plane
// timers as re-arm records, registered source reposts by registry index.
// Data-plane events are netsim's to serialize; anything else is a strict
// error naming the offender.
func (b *Backbone) classifyPending() ([]byte, error) {
	return classifyPendingOn(b.E, b.Net.OwnsAction, func(a sim.Action) (int, bool) {
		idx, ok := b.srcIndex[a]
		return idx, ok
	})
}

// classifyPendingOn is classifyPending over an explicit engine, data-plane
// ownership test, and source resolver, so an inter-AS snapshot can classify
// a shared engine's heap against the union of every AS's source registry.
func classifyPendingOn(e *sim.Engine, owns func(sim.Action) bool, srcOf func(sim.Action) (int, bool)) ([]byte, error) {
	var setup [][2]uint64 // shard+1 (to keep GlobalBand=-1 unsigned-safe), seq
	var tagged []pendingTagged
	var srcs []pendingSource
	var unknown []string
	e.WalkPending(func(pe sim.PendingEvent) {
		switch {
		case pe.Setup:
			setup = append(setup, [2]uint64{uint64(pe.Shard + 1), pe.Seq})
		case pe.Tag.Kind != 0:
			tagged = append(tagged, pendingTagged{shard: pe.Shard, at: pe.At, seq: pe.Seq, tag: pe.Tag})
		case pe.Act != nil && owns(pe.Act):
			// In-flight data plane: serialized and re-armed by netsim.
		case pe.Act != nil:
			if idx, ok := srcOf(pe.Act); ok {
				srcs = append(srcs, pendingSource{idx: idx, shard: pe.Shard, at: pe.At, seq: pe.Seq})
			} else {
				unknown = append(unknown, fmt.Sprintf("action %T at %v", pe.Act, pe.At))
			}
		default:
			unknown = append(unknown, fmt.Sprintf("untagged closure at %v (seq %d)", pe.At, pe.Seq))
		}
	})
	if len(unknown) > 0 {
		return nil, fmt.Errorf("core: snapshot cannot serialize %d pending event(s): %v", len(unknown), unknown)
	}

	// Canonical order: heap layout depends on push/pop history, so two
	// snapshots of identical simulation state could otherwise serialize
	// their pending events differently. Sorting by (shard, seq) makes the
	// encoding a pure function of state — snapshot(restore(s)) == s.
	sort.Slice(setup, func(i, j int) bool {
		if setup[i][0] != setup[j][0] {
			return setup[i][0] < setup[j][0]
		}
		return setup[i][1] < setup[j][1]
	})
	sort.Slice(tagged, func(i, j int) bool {
		if tagged[i].shard != tagged[j].shard {
			return tagged[i].shard < tagged[j].shard
		}
		return tagged[i].seq < tagged[j].seq
	})
	sort.Slice(srcs, func(i, j int) bool {
		if srcs[i].shard != srcs[j].shard {
			return srcs[i].shard < srcs[j].shard
		}
		return srcs[i].seq < srcs[j].seq
	})

	var w snapshot.Writer
	w.U64(uint64(len(setup)))
	for _, s := range setup {
		w.U64(s[0])
		w.U64(s[1])
	}
	w.U64(uint64(len(tagged)))
	for _, t := range tagged {
		w.I64(int64(t.shard))
		w.I64(int64(t.at))
		w.U64(t.seq)
		w.U64(uint64(t.tag.Kind))
		w.U64(t.tag.A)
		w.U64(t.tag.B)
	}
	w.U64(uint64(len(srcs)))
	for _, s := range srcs {
		w.I64(int64(s.idx))
		w.I64(int64(s.shard))
		w.I64(int64(s.at))
		w.U64(s.seq)
	}
	return w.Data(), nil
}

// saveCoreState serializes the backbone's own dynamic bookkeeping: fault
// maps, TE intents, bypass bindings, survivability sessions, and the
// telemetry utilization cache.
func (b *Backbone) saveCoreState(w *snapshot.Writer) {
	w.I64(int64(b.IsolationViolations))
	w.I64(int64(b.teReqSeq))

	pairs := make([]linkPair, 0, len(b.failedLinks))
	for p := range b.failedLinks {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].lo != pairs[j].lo {
			return pairs[i].lo < pairs[j].lo
		}
		return pairs[i].hi < pairs[j].hi
	})
	w.U64(uint64(len(pairs)))
	for _, p := range pairs {
		w.I64(int64(p.lo))
		w.I64(int64(p.hi))
	}

	saveNodeSet(w, b.nodeDown)
	saveNodeSet(w, b.ctrlDown)

	cut := make([]string, 0, len(b.cutSites))
	for s := range b.cutSites {
		cut = append(cut, s)
	}
	sort.Strings(cut)
	w.U64(uint64(len(cut)))
	for _, s := range cut {
		w.Str(s)
	}

	w.U64(uint64(len(b.teRequests)))
	for _, req := range b.teRequests {
		w.I64(int64(req.id))
		w.Str(req.name)
		w.I64(int64(req.ingress))
		w.I64(int64(req.egress))
		w.Str(req.vpn)
		w.F64(req.bandwidth)
		w.I64(int64(req.class))
		saveSetupOptions(w, req.opt)
		lspID := -1
		if req.lsp != nil {
			lspID = req.lsp.ID
		}
		w.I64(int64(lspID))
		w.F64(req.fullBandwidth)
		w.I64(int64(req.fullClassType))
		w.Bool(req.degraded)
		w.I64(int64(req.attempts))
		w.Bool(req.retryPending)
		w.Bool(req.removed)
	}

	w.Bool(b.bypasses != nil)
	if b.bypasses != nil {
		lids := make([]topo.LinkID, 0, len(b.bypasses))
		for l := range b.bypasses {
			lids = append(lids, l)
		}
		sort.Slice(lids, func(i, j int) bool { return lids[i] < lids[j] })
		w.U64(uint64(len(lids)))
		for _, l := range lids {
			w.I64(int64(l))
			w.I64(int64(b.bypasses[l].ID))
		}
	}

	w.Bool(b.surv != nil)
	if b.surv != nil {
		s := b.surv
		w.I64(int64(s.flaps))
		w.I64(int64(s.restores))
		w.I64(int64(s.staleSwept))
		w.I64(int64(s.withdrawn))
		w.I64(int64(s.damped))
		w.I64(int64(s.reused))
		nodes := sortedNodeIDs(s.sess)
		w.U64(uint64(len(nodes)))
		for _, n := range nodes {
			st := s.sess[n]
			w.I64(int64(n))
			w.I64(int64(st.state))
			w.I64(int64(st.misses))
			w.I64(int64(st.grDeadline))
		}
	}

	w.U64(uint64(len(b.telPrevTx)))
	for i := range b.telPrevTx {
		w.I64(b.telPrevTx[i])
		w.F64(b.telLastUtil[i])
	}

	// Delta-reconvergence queue: the single-link flaps awaiting the next
	// reconvergence, in arrival order (it is a queue, not a set), and the
	// wider-event marker that forces the full rebuild. A checkpoint taken
	// inside a detection window must resume with the same reconvergence
	// mode or the IGP message counters diverge from the uninterrupted run.
	w.U64(uint64(len(b.pendingLinks)))
	for _, p := range b.pendingLinks {
		w.I64(int64(p.lo))
		w.I64(int64(p.hi))
	}
	w.Bool(b.pendingFull)
}

// Restore overlays a checkpoint onto a freshly rebuilt scenario: same
// builder, same seed, same sharding, nothing run yet. On any error the
// backbone must be discarded and rebuilt — a failed restore does not roll
// back (the CRC check up front means that only happens on a scenario
// mismatch, never on a corrupt file).
func (b *Backbone) Restore(data []byte, scenario string) error {
	f, err := snapshot.Decode(data)
	if err != nil {
		return err
	}
	sec := func(name string) (*snapshot.Reader, error) {
		p, ok := f.Section(name)
		if !ok {
			return nil, fmt.Errorf("%w: missing section %q", snapshot.ErrCorrupt, name)
		}
		return snapshot.NewReader(p), nil
	}

	r, err := sec(secManifest)
	if err != nil {
		return err
	}
	wantScenario := r.Str()
	wantSeed := r.U64()
	snapT := sim.Time(r.I64())
	wantScheds := r.U64()
	wantPlain := r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	scheds := b.E.Schedulers()
	switch {
	case wantScenario != scenario:
		return fmt.Errorf("%w: scenario %q, checkpoint %q", snapshot.ErrMismatch, scenario, wantScenario)
	case wantSeed != b.Cfg.Seed:
		return fmt.Errorf("%w: seed %d, checkpoint %d", snapshot.ErrMismatch, b.Cfg.Seed, wantSeed)
	case wantScheds != uint64(len(scheds)):
		return fmt.Errorf("%w: %d schedulers, checkpoint %d", snapshot.ErrMismatch, len(scheds), wantScheds)
	case wantPlain != b.Cfg.PlainIP:
		return fmt.Errorf("%w: PlainIP=%v, checkpoint %v", snapshot.ErrMismatch, b.Cfg.PlainIP, wantPlain)
	case !b.built:
		return fmt.Errorf("%w: restore before BuildProvider", snapshot.ErrMismatch)
	}
	_ = snapT

	// Kill the setup events the original run had already consumed. MarkSetup
	// is idempotent here: nothing has run, so the watermark equals the
	// builder's.
	b.E.MarkSetup()
	pr, err := sec(secPending)
	if err != nil {
		return err
	}
	keep, tagged, srcEvents, err := loadPending(pr)
	if err != nil {
		return err
	}
	b.E.FilterPending(func(shard int, seq uint64) bool {
		return keep[[2]uint64{uint64(shard + 1), seq}]
	})

	if r, err = sec(secTopo); err != nil {
		return err
	}
	if err := loadTopoState(r, b.G); err != nil {
		return err
	}

	if err := b.restoreControlSections(sec, ""); err != nil {
		return err
	}

	if r, err = sec(secNet); err != nil {
		return err
	}
	if err := b.Net.LoadState(r); err != nil {
		return err
	}

	if err := b.restoreTrafficSections(sec, ""); err != nil {
		return err
	}

	// Re-arm the dynamic timers and source reposts with their original
	// identities, then advance the schedulers to the snapshot instant.
	for _, t := range tagged {
		fn, err := b.rearmOwnTagged(t.tag)
		if err != nil {
			return err
		}
		b.E.RestoreEvent(t.shard, t.at, t.seq, t.tag, fn)
	}
	if err := b.rearmSources(srcEvents); err != nil {
		return err
	}

	if r, err = sec(secEngine); err != nil {
		return err
	}
	if err := loadSchedState(r, b.E); err != nil {
		return err
	}
	return b.loadAuxRngs(r)
}

// loadPending is the decode side of classifyPendingOn.
func loadPending(pr *snapshot.Reader) (map[[2]uint64]bool, []pendingTagged, []pendingSource, error) {
	ns := pr.Count(2)
	keep := make(map[[2]uint64]bool, ns)
	for i := 0; i < ns; i++ {
		keep[[2]uint64{pr.U64(), pr.U64()}] = true
	}
	nt := pr.Count(6)
	tagged := make([]pendingTagged, 0, nt)
	for i := 0; i < nt; i++ {
		t := pendingTagged{
			shard: int(pr.I64()),
			at:    sim.Time(pr.I64()),
			seq:   pr.U64(),
		}
		t.tag = sim.Tag{Kind: uint16(pr.U64()), A: pr.U64(), B: pr.U64()}
		tagged = append(tagged, t)
	}
	nsrc := pr.Count(4)
	srcEvents := make([]pendingSource, 0, nsrc)
	for i := 0; i < nsrc; i++ {
		srcEvents = append(srcEvents, pendingSource{
			idx:   int(pr.I64()),
			shard: int(pr.I64()),
			at:    sim.Time(pr.I64()),
			seq:   pr.U64(),
		})
	}
	return keep, tagged, srcEvents, pr.Err()
}

// rearmOwnTagged rebuilds the closure for a tag that belongs to this
// backbone, resolving TE intents through the freshly restored request list.
func (b *Backbone) rearmOwnTagged(tag sim.Tag) (func(), error) {
	reqByID := make(map[int]*teRequest, len(b.teRequests))
	for _, req := range b.teRequests {
		reqByID[req.id] = req
	}
	return b.rearmTagged(tag, reqByID)
}

// rearmSources re-arms serialized source repost events against the
// registered source list.
func (b *Backbone) rearmSources(srcEvents []pendingSource) error {
	for _, s := range srcEvents {
		if s.idx < 0 || s.idx >= len(b.sources) {
			return fmt.Errorf("%w: pending event for source %d, only %d registered", snapshot.ErrMismatch, s.idx, len(b.sources))
		}
		b.E.RestoreAction(s.shard, s.at, s.seq, b.sources[s.idx])
	}
	return nil
}

// restoreControlSections is the decode side of addControlSections.
func (b *Backbone) restoreControlSections(sec func(string) (*snapshot.Reader, error), prefix string) error {
	r, err := sec(prefix + secIGP)
	if err != nil {
		return err
	}
	if err := b.IGP.LoadState(r); err != nil {
		return err
	}

	if r, err = sec(prefix + secLabels); err != nil {
		return err
	}
	na := r.Count(2)
	for i := 0; i < na; i++ {
		n := topo.NodeID(r.I64())
		a, ok := b.allocs[n]
		if !ok {
			return fmt.Errorf("%w: allocator for unknown node %d", snapshot.ErrMismatch, n)
		}
		if err := a.LoadState(r); err != nil {
			return err
		}
	}
	hasLDP := r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	if hasLDP != (b.LDP != nil) {
		return fmt.Errorf("%w: LDP in checkpoint=%v, scenario=%v", snapshot.ErrMismatch, hasLDP, b.LDP != nil)
	}
	if b.LDP != nil {
		if err := b.LDP.LoadState(r); err != nil {
			return err
		}
	}
	hasRSVP := r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	if hasRSVP != (b.RSVP != nil) {
		return fmt.Errorf("%w: RSVP in checkpoint=%v, scenario=%v", snapshot.ErrMismatch, hasRSVP, b.RSVP != nil)
	}
	if b.RSVP != nil {
		if err := b.RSVP.LoadState(r); err != nil {
			return err
		}
	}

	if r, err = sec(prefix + secBGP); err != nil {
		return err
	}
	if err := b.BGP.LoadState(r); err != nil {
		return err
	}

	if r, err = sec(prefix + secRouters); err != nil {
		return err
	}
	nr := r.Count(2)
	for i := 0; i < nr; i++ {
		n := topo.NodeID(r.I64())
		rt, ok := b.routers[n]
		if !ok {
			return fmt.Errorf("%w: router state for unknown node %d", snapshot.ErrMismatch, n)
		}
		if err := rt.LoadState(r); err != nil {
			return err
		}
	}

	if r, err = sec(prefix + secCore); err != nil {
		return err
	}
	if err := b.loadCoreState(r); err != nil {
		return err
	}

	if r, err = sec(prefix + secRegistry); err != nil {
		return err
	}
	return b.Registry.LoadState(r)
}

// restoreTrafficSections is the decode side of addTrafficSections.
func (b *Backbone) restoreTrafficSections(sec func(string) (*snapshot.Reader, error), prefix string) error {
	r, err := sec(prefix + secFlows)
	if err != nil {
		return err
	}
	nf := r.Count(8)
	for i := 0; i < nf; i++ {
		k := loadFlowKey(r)
		if r.Err() != nil {
			return r.Err()
		}
		fl, ok := b.flows[k]
		if !ok {
			return fmt.Errorf("%w: flow %v not registered by the rebuild", snapshot.ErrMismatch, k)
		}
		if err := fl.LoadState(r); err != nil {
			return err
		}
	}

	if r, err = sec(prefix + secSources); err != nil {
		return err
	}
	nsources := r.Count(1)
	if nsources != len(b.sources) {
		return fmt.Errorf("%w: %d sources in checkpoint, %d registered", snapshot.ErrMismatch, nsources, len(b.sources))
	}
	for _, s := range b.sources {
		if err := s.LoadState(r); err != nil {
			return err
		}
	}

	if r, err = sec(prefix + secTelemetry); err != nil {
		return err
	}
	hasTel := r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	if hasTel != (b.tel != nil) {
		return fmt.Errorf("%w: telemetry in checkpoint=%v, scenario=%v", snapshot.ErrMismatch, hasTel, b.tel != nil)
	}
	if b.tel != nil {
		if err := b.tel.Reg.LoadState(r); err != nil {
			return err
		}
		if err := b.tel.Journal.LoadState(r); err != nil {
			return err
		}
		if err := b.tel.Flows.LoadState(r); err != nil {
			return err
		}
		hasWatcher := r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		if hasWatcher != (b.tel.Watcher != nil) {
			return fmt.Errorf("%w: SLA watcher in checkpoint=%v, scenario=%v", snapshot.ErrMismatch, hasWatcher, b.tel.Watcher != nil)
		}
		if b.tel.Watcher != nil {
			if err := b.tel.Watcher.LoadState(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// rearmTagged rebuilds the closure a serialized tag stands for. The domain
// bits are masked off: the caller has already routed the tag to the right
// backbone.
func (b *Backbone) rearmTagged(tag sim.Tag, reqByID map[int]*teRequest) (func(), error) {
	switch tag.Kind & tagKindMask {
	case tagReconverge:
		return b.reconvergeProvider, nil
	case tagLocalRepair:
		na, nz := topo.NodeID(tag.A), topo.NodeID(tag.B)
		return func() { b.localRepair(na, nz) }, nil
	case tagTERetry:
		req, ok := reqByID[int(tag.A)]
		if !ok {
			// The intent was torn down between checkpoint and crash replay
			// semantics never see this, but a no-op matches retrySignal's own
			// handling of removed intents.
			return func() {}, nil
		}
		return func() { b.retrySignal(req) }, nil
	case tagDrain:
		id := int(tag.A)
		return func() {
			if b.RSVP != nil {
				b.RSVP.RunDrain(id)
			}
		}, nil
	}
	return nil, fmt.Errorf("%w: unknown event tag kind %d", snapshot.ErrCorrupt, tag.Kind)
}

// loadCoreState is the decode side of saveCoreState.
func (b *Backbone) loadCoreState(r *snapshot.Reader) error {
	b.IsolationViolations = int(r.I64())
	b.teReqSeq = int(r.I64())

	np := r.Count(2)
	b.failedLinks = make(map[linkPair]bool, np)
	for i := 0; i < np; i++ {
		b.failedLinks[linkPair{topo.NodeID(r.I64()), topo.NodeID(r.I64())}] = true
	}

	var err error
	if b.nodeDown, err = loadNodeSet(r); err != nil {
		return err
	}
	if b.ctrlDown, err = loadNodeSet(r); err != nil {
		return err
	}

	nc := r.Count(1)
	b.cutSites = make(map[string]bool, nc)
	for i := 0; i < nc; i++ {
		b.cutSites[r.Str()] = true
	}

	nreq := r.Count(16)
	b.teRequests = make([]*teRequest, 0, nreq)
	for i := 0; i < nreq; i++ {
		req := &teRequest{
			id:      int(r.I64()),
			name:    r.Str(),
			ingress: topo.NodeID(r.I64()),
			egress:  topo.NodeID(r.I64()),
			vpn:     r.Str(),
		}
		req.bandwidth = r.F64()
		req.class = qos.Class(r.I64())
		opt, err := loadSetupOptions(r)
		if err != nil {
			return err
		}
		req.opt = opt
		lspID := int(r.I64())
		req.fullBandwidth = r.F64()
		req.fullClassType = rsvp.ClassType(r.I64())
		req.degraded = r.Bool()
		req.attempts = int(r.I64())
		req.retryPending = r.Bool()
		req.removed = r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		if lspID >= 0 {
			l, ok := b.RSVP.Get(lspID)
			if !ok {
				return fmt.Errorf("%w: TE intent %q references LSP %d absent from the checkpoint", snapshot.ErrCorrupt, req.name, lspID)
			}
			req.lsp = l
		}
		b.teRequests = append(b.teRequests, req)
	}

	hasByp := r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	b.bypasses = nil
	if hasByp {
		nb := r.Count(2)
		b.bypasses = make(map[topo.LinkID]*rsvp.LSP, nb)
		for i := 0; i < nb; i++ {
			lid := topo.LinkID(r.I64())
			lspID := int(r.I64())
			if r.Err() != nil {
				return r.Err()
			}
			l, ok := b.RSVP.Get(lspID)
			if !ok {
				return fmt.Errorf("%w: bypass for link %d references LSP %d absent from the checkpoint", snapshot.ErrCorrupt, lid, lspID)
			}
			b.bypasses[lid] = l
		}
	}

	hasSurv := r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	if hasSurv != (b.surv != nil) {
		return fmt.Errorf("%w: survivability in checkpoint=%v, scenario=%v", snapshot.ErrMismatch, hasSurv, b.surv != nil)
	}
	if b.surv != nil {
		s := b.surv
		s.flaps = int(r.I64())
		s.restores = int(r.I64())
		s.staleSwept = int(r.I64())
		s.withdrawn = int(r.I64())
		s.damped = int(r.I64())
		s.reused = int(r.I64())
		nsess := r.Count(4)
		s.sess = make(map[topo.NodeID]*survSession, nsess)
		for i := 0; i < nsess; i++ {
			n := topo.NodeID(r.I64())
			s.sess[n] = &survSession{
				state:      survState(r.I64()),
				misses:     int(r.I64()),
				grDeadline: sim.Time(r.I64()),
			}
		}
	}

	nu := r.Count(9)
	b.telPrevTx = make([]int64, nu)
	b.telLastUtil = make([]float64, nu)
	for i := 0; i < nu; i++ {
		b.telPrevTx[i] = r.I64()
		b.telLastUtil[i] = r.F64()
	}

	npl := r.Count(2)
	b.pendingLinks = b.pendingLinks[:0]
	for i := 0; i < npl; i++ {
		b.pendingLinks = append(b.pendingLinks, linkPair{topo.NodeID(r.I64()), topo.NodeID(r.I64())})
	}
	b.pendingFull = r.Bool()

	// The TE plain-path cache is derived state: anything the builder
	// pre-computed reflects pre-restore topology, so it goes.
	b.dropTECache()
	return r.Err()
}

func saveSetupOptions(w *snapshot.Writer, opt rsvp.SetupOptions) {
	w.Bool(opt.Explicit != nil)
	if opt.Explicit != nil {
		w.U64(uint64(len(opt.Explicit.Links)))
		for _, l := range opt.Explicit.Links {
			w.I64(int64(l))
		}
	}
	w.I64(int64(opt.SetupPri))
	w.I64(int64(opt.HoldPri))
	w.I64(int64(opt.ClassType))
	avoid := make([]topo.LinkID, 0, len(opt.Avoid))
	for l := range opt.Avoid {
		avoid = append(avoid, l)
	}
	sort.Slice(avoid, func(i, j int) bool { return avoid[i] < avoid[j] })
	w.U64(uint64(len(avoid)))
	for _, l := range avoid {
		w.I64(int64(l))
	}
}

func loadSetupOptions(r *snapshot.Reader) (rsvp.SetupOptions, error) {
	var opt rsvp.SetupOptions
	hasExplicit := r.Bool()
	if r.Err() != nil {
		return opt, r.Err()
	}
	if hasExplicit {
		n := r.Count(1)
		p := &topo.Path{Links: make([]topo.LinkID, 0, n)}
		for i := 0; i < n; i++ {
			p.Links = append(p.Links, topo.LinkID(r.I64()))
		}
		opt.Explicit = p
	}
	opt.SetupPri = int(r.I64())
	opt.HoldPri = int(r.I64())
	opt.ClassType = rsvp.ClassType(r.I64())
	na := r.Count(1)
	if na > 0 {
		opt.Avoid = make(map[topo.LinkID]bool, na)
		for i := 0; i < na; i++ {
			opt.Avoid[topo.LinkID(r.I64())] = true
		}
	}
	return opt, r.Err()
}

func saveFlowKey(w *snapshot.Writer, k packet.FlowKey) {
	w.U64(uint64(k.Src))
	w.U64(uint64(k.Dst))
	w.U64(uint64(k.SrcPort))
	w.U64(uint64(k.DstPort))
	w.U64(uint64(k.Protocol))
}

func loadFlowKey(r *snapshot.Reader) packet.FlowKey {
	return packet.FlowKey{
		Src:      addr.IPv4(uint32(r.U64())),
		Dst:      addr.IPv4(uint32(r.U64())),
		SrcPort:  uint16(r.U64()),
		DstPort:  uint16(r.U64()),
		Protocol: uint8(r.U64()),
	}
}

// flowKeyLess orders flow keys for deterministic serialization.
func flowKeyLess(a, b packet.FlowKey) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	return a.Protocol < b.Protocol
}

func sortedNodeIDs[V any](m map[topo.NodeID]V) []topo.NodeID {
	out := make([]topo.NodeID, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func saveNodeSet(w *snapshot.Writer, set map[topo.NodeID]bool) {
	nodes := sortedNodeIDs(set)
	w.U64(uint64(len(nodes)))
	for _, n := range nodes {
		w.I64(int64(n))
	}
}

func loadNodeSet(r *snapshot.Reader) (map[topo.NodeID]bool, error) {
	n := r.Count(1)
	set := make(map[topo.NodeID]bool, n)
	for i := 0; i < n; i++ {
		set[topo.NodeID(r.I64())] = true
	}
	return set, r.Err()
}
