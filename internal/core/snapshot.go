// Checkpoint/restore orchestration: Snapshot serializes the backbone's full
// dynamic state — control plane, forwarding tables, in-flight packets,
// traffic sources, telemetry, and every pending event — and Restore overlays
// it onto a rebuild of the scenario, run or not.
//
// The architecture is "dynamic-state delta over a deterministic rebuild":
// a snapshot does not serialize topology, policy, or wiring (closures,
// telemetry hooks, schedulers). The restore path re-runs the original
// scenario builder, which re-creates all of that byte-identically, empties
// the rebuilt event queue, overlays the serialized dynamic state, and
// re-arms every pending event with its original (time, seq) identity so the
// event order — and therefore the StateDigest, journal, and flow statistics
// — continues exactly as an uninterrupted run's would.
//
// Protocol, on the original run:
//
//	build scenario; run to T; data, err := b.Snapshot(fp)
//
// and on resume:
//
//	rebuild the same scenario; err := b.Restore(data, fp); run onward
//
// Dynamically provisioned sites are assumed to be part of the rebuild
// (provisioning is setup). Every pending event is a typed action: netsim's
// in-flight packets, a registered action (a traffic source whose state
// serializes, or a callback booked with At: a scripted chaos or netconf
// event, a driver's timed step) re-armed by registry index, or a ctlTimer,
// periodic scans included. An action no section owns (the intent
// reconciler's step, netconf's confirmed-commit timeout) pending at the cut
// makes a snapshot fail strictly, naming its type, rather than silently drop
// the event.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"mplsvpn/internal/device"
	"mplsvpn/internal/mpls"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

// Control-timer kinds, as the "pending" section encodes them.
const (
	// timerReconverge is a pending provider reconvergence (no operands).
	timerReconverge uint16 = iota + 1
	// timerLocalRepair is a pending FRR activation; a and z are the failed
	// link's endpoint node IDs.
	timerLocalRepair
	// timerTERetry is a pending TE re-signal; a is the intent's stable id.
	timerTERetry
	// timerDrain is a pending make-before-break drain; a is the drain id.
	timerDrain

	// The periodic ticks (see tick); a is the last instant an occurrence
	// may fall on, z the interval.
	timerHello    // survivability hello scan
	timerRefresh  // resilience plane's RSVP soft-state scan
	timerProbe    // resilience plane's restore probe
	timerFlowRoll // telemetry flow-export roll
	timerPeering  // the inter-AS plane's peering hello scan
)

// timerKindMask extracts the kind from an encoded timer whose high bits
// carry its domain: the backbone's AS index in a multi-provider simulation
// (from 1; 0 standalone), or 0 for the inter-AS plane's own tick. That is
// what routes a re-arm to the right AS, or to the plane.
const timerKindMask uint16 = 0x000F

// ctlTimer is a control-plane timer: a sim.Action whose whole state is the
// backbone it fires on (or, for the peering tick, the inter-AS plane), a
// kind, two operands and, for a periodic tick, the seq it re-arms under, so
// a checkpoint can write a pending one down and a restore re-arm it. Run is
// the only place each continuation is written.
type ctlTimer struct {
	b    *Backbone
	x    *InterAS // the peering tick's plane; b is nil then
	kind uint16
	a, z uint64
	seq  uint64
}

// owner returns the engine the timer runs on and the domain a checkpoint
// routes its re-arm by.
func (t *ctlTimer) owner() (*sim.Engine, uint16) {
	if t.b == nil {
		return t.x.E, 0
	}
	return t.b.E, t.b.domain
}

// tick starts a periodic job: t runs every interval from now while within
// horizon of now (never for horizon <= 0). Each run re-arms the next under
// the seq the first was posted with, so every occurrence sorts against a
// same-instant event as the first would: after everything posted before
// the tick started, before everything posted after.
func tick(e *sim.Engine, t *ctlTimer, interval, horizon sim.Time) {
	if horizon <= 0 || interval > horizon {
		return
	}
	_, t.seq, _ = e.Queue(sim.GlobalBand).Counters()
	t.a, t.z = uint64(e.Now()+horizon), uint64(interval)
	e.PostAfter(interval, t)
}

// after arms a control timer d from now.
func (b *Backbone) after(d sim.Time, kind uint16, a, z uint64) {
	b.E.PostAfter(d, &ctlTimer{b: b, kind: kind, a: a, z: z})
}

func (t *ctlTimer) Run() {
	b := t.b
	switch t.kind {
	case timerReconverge:
		b.reconvergeDetected()
	case timerLocalRepair:
		b.localRepair(topo.NodeID(t.a), topo.NodeID(t.z))
	case timerTERetry:
		// By id, so a restored timer finds the restored intent. An intent
		// torn down meanwhile is gone from the list: nothing to retry.
		if i := slices.IndexFunc(b.teRequests, func(r *teRequest) bool { return r.id == int(t.a) }); i >= 0 {
			b.retrySignal(b.teRequests[i])
		}
	case timerDrain:
		// A drain a full reconvergence forgot with its tables is a no-op.
		if b.RSVP != nil {
			b.RSVP.RunDrain(int(t.a))
		}
	case timerHello:
		b.helloScan()
	case timerRefresh:
		b.refreshScan()
	case timerProbe:
		b.probeRestore()
	case timerFlowRoll:
		b.tel.Flows.RollTo(b.E.Now())
	case timerPeering:
		t.x.peeringScan()
	}
	// next > now also stops a tick whose interval came from a damaged file.
	e, _ := t.owner()
	if next := e.Now() + sim.Time(t.z); t.kind >= timerHello && next > e.Now() && next <= sim.Time(t.a) {
		e.RestoreAction(sim.GlobalBand, next, t.seq, t)
	}
}

// RegisterSource records a checkpointable action in creation order: a
// traffic source, or a callback booked with At. A snapshot finds a
// registered action's pending event through this registry and a restore
// re-arms it on the rebuilt one, so the original builder and the rebuild
// must register the same actions in the same order.
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

// At books fn at virtual time at: the one way a driver books a callback.
// fn is a registered action, so a checkpoint with it pending re-arms it on
// a rebuild that books the same callbacks in the same order.
func (b *Backbone) At(at sim.Time, fn func()) {
	b.E.Post(at, b.RegisterSource(&callback{fn}))
}

// callback is a func booked with At. Its State walks nothing: the rebuild's
// callback is the same.
type callback struct{ fn func() }

func (c *callback) Run()                { c.fn() }
func (*callback) State(*snapshot.Codec) {}

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

// section is one named part of the checkpoint container and the state walk
// that writes it on a snapshot and reads it on a restore. Snapshot emits a
// table of sections in order, which is the file order; Restore applies the
// same table in the same order, except that late sections wait until every
// other one is in.
type section struct {
	name string
	walk func(*snapshot.Codec)
	late bool
}

// encodeSections runs every walk over the container's one buffer and seals
// it. sizeHint is the length of the owner's previous checkpoint, 0 for none:
// what the buffer is sized from, so that writing this one allocates once.
func encodeSections(secs []section, sizeHint int) []byte {
	f := snapshot.NewFramer(len(secs), sizeHint)
	for _, s := range secs {
		f.Section(s.name, s.walk)
	}
	return f.Seal()
}

// restoreSections decodes the container and runs every walk over a Loader
// of its section. The CRC check up front means a failure past it is a
// scenario mismatch or hand-built damage, never a torn file.
func restoreSections(data []byte, secs []section) error {
	f, err := snapshot.Decode(data)
	if err != nil {
		return err
	}
	load := func(s section) error {
		p, ok := f.Section(s.name)
		if !ok {
			return fmt.Errorf("%w: missing section %q", snapshot.ErrCorrupt, s.name)
		}
		if err := snapshot.Load(snapshot.NewReader(p), s.walk); err != nil {
			return fmt.Errorf("section %q: %w", s.name, err)
		}
		return nil
	}
	for _, late := range []bool{false, true} {
		for _, s := range secs {
			if s.late != late {
				continue
			}
			if err := load(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// pendingTimer is one serialized control timer awaiting re-arm; kind holds
// the owning backbone's domain in its high bits.
type pendingTimer struct {
	shard int
	at    sim.Time
	seq   uint64
	kind  uint16
	a, z  uint64
}

// pendingSource is one serialized traffic-source repost awaiting re-arm.
type pendingSource struct {
	idx   int
	shard int
	at    sim.Time
	seq   uint64
}

// pendingSet is the "pending" section: every live event of the heaps that
// core accounts for, by class.
type pendingSet struct {
	timers []pendingTimer
	srcs   []pendingSource
}

// Snapshot serializes the backbone's dynamic state at the current virtual
// time. scenario is the caller's fingerprint of the scenario construction
// (builder name, parameters, shard count); Restore refuses a checkpoint
// whose fingerprint differs.
func (b *Backbone) Snapshot(scenario string) ([]byte, error) {
	if !b.built {
		return nil, fmt.Errorf("core: snapshot before BuildProvider")
	}
	pend, err := classifyPending(b.E, b.Net.OwnsAction, []*Backbone{b})
	if err != nil {
		return nil, err
	}
	data := encodeSections(b.sections(scenario, pend), b.checkpointLen)
	b.checkpointLen = len(data)
	return data, nil
}

// Restore overlays a checkpoint onto a build of its scenario: same builder,
// same seed, same sharding. On any error the backbone must be discarded and
// rebuilt — a failed restore does not roll back.
func (b *Backbone) Restore(data []byte, scenario string) error {
	// Every pending event comes from the checkpoint: the rebuild's go.
	b.E.DropPending()
	pend := &pendingSet{}
	if err := restoreSections(data, b.sections(scenario, pend)); err != nil {
		return err
	}
	b.checkpointLen = len(data)
	return pend.rearm(b.E, []*Backbone{b}, nil)
}

// sections is the backbone's checkpoint: what Snapshot writes and Restore
// reads, in file order. The engine section goes in last on a restore, so
// the schedulers advance to the snapshot instant only once nothing else can
// touch their clocks and sequence counters.
func (b *Backbone) sections(scenario string, pend *pendingSet) []section {
	secs := []section{
		{name: secManifest, walk: func(c *snapshot.Codec) { b.manifestState(c, scenario) }},
		{name: secEngine, late: true, walk: func(c *snapshot.Codec) {
			schedState(c, b.E)
			b.auxRngState(c)
		}},
		{name: secPending, walk: func(c *snapshot.Codec) { pendingState(c, b.E, pend) }},
		{name: secTopo, walk: func(c *snapshot.Codec) { topoState(c, b.G) }},
	}
	secs = append(secs, b.controlSections("")...)
	secs = append(secs, section{name: secNet, walk: b.Net.State})
	return append(secs, b.trafficSections("")...)
}

// manifestState walks what identifies the run: the scenario fingerprint,
// seed, snapshot instant, scheduler count and forwarding mode. A load
// refuses a checkpoint of any other run.
func (b *Backbone) manifestState(c *snapshot.Codec, scenario string) {
	got := scenario
	c.Str(&got)
	seed := c.U64(b.Cfg.Seed)
	c.I64(int64(b.E.Now()))
	scheds := len(b.E.Schedulers())
	nsched := c.U64(uint64(scheds))
	plain := c.Has(b.Cfg.PlainIP)
	if !c.Loaded() {
		return
	}
	switch {
	case got != scenario:
		c.Mismatch("scenario %q, checkpoint %q", scenario, got)
	case seed != b.Cfg.Seed:
		c.Mismatch("seed %d, checkpoint %d", b.Cfg.Seed, seed)
	case nsched != uint64(scheds):
		c.Mismatch("%d schedulers, checkpoint %d", scheds, nsched)
	case plain != b.Cfg.PlainIP:
		c.Mismatch("PlainIP=%v, checkpoint %v", b.Cfg.PlainIP, plain)
	case !b.built:
		c.Mismatch("restore before BuildProvider")
	}
}

// schedState walks the engine's scheduler clocks and sequence counters and
// the engine-wide random stream — the state shared by every backbone on the
// engine.
func schedState(c *snapshot.Codec, e *sim.Engine) {
	for _, s := range e.Schedulers() {
		q := e.Queue(s)
		now, seq, executed := q.Counters()
		id := c.I64(int64(s))
		now = sim.Time(c.I64(int64(now)))
		seq, executed = c.U64(seq), c.U64(executed)
		if !c.Loaded() {
			continue
		}
		if id != int64(s) {
			c.Mismatch("scheduler %d in checkpoint where the scenario has %d", id, s)
			return
		}
		q.RestoreCounters(now, seq, executed)
	}
	e.Rand().SetState(c.U64(e.Rand().State()))
}

// auxRngState walks the backbone's forked random streams (control-plane
// loss, TE retry jitter).
func (b *Backbone) auxRngState(c *snapshot.Codec) {
	if c.Has(b.ctrlRng != nil) {
		if b.ctrlRng == nil {
			c.Mismatch("control-plane loss rng in checkpoint but not in scenario")
			return
		}
		b.ctrlRng.SetState(c.U64(b.ctrlRng.State()))
	}
	if c.Same(b.res != nil, "resilience") {
		b.res.rng.SetState(c.U64(b.res.rng.State()))
	}
}

// topoState walks the graph's dynamic link state: a flag and a float64 per
// link. A load writes the flag without firing the graph's link-state
// observers: the data plane's port state they would recompute is the net
// section's, and a hook run now would act on the rebuild's ports.
func topoState(c *snapshot.Codec, g *topo.Graph) {
	if !c.FixedLen(g.NumLinks(), 9, "links") {
		return
	}
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topo.LinkID(i))
		c.Bool(&l.Down)
		c.F64(&l.ReservedBw)
	}
}

// controlSections lists the backbone's control-plane sections (IGP, label
// plane, BGP, routers, core bookkeeping, registry) under a section name
// prefix — empty for a standalone snapshot, "<as>/" per AS in an inter-AS
// one.
func (b *Backbone) controlSections(prefix string) []section {
	nodeID := snapshot.Int[topo.NodeID]
	return []section{
		{name: prefix + secIGP, walk: b.IGP.State},
		{name: prefix + secLabels, walk: func(c *snapshot.Codec) {
			snapshot.Overlay(c, b.allocs, cmp.Compare[topo.NodeID], 2, "allocator for node", nodeID,
				func(c *snapshot.Codec, a *mpls.Allocator) { a.State(c) })
			if c.Same(b.LDP != nil, "LDP") {
				b.LDP.State(c)
			}
			if c.Same(b.RSVP != nil, "RSVP") {
				b.RSVP.State(c)
			}
		}},
		{name: prefix + secBGP, walk: b.BGP.State},
		{name: prefix + secRouters, walk: func(c *snapshot.Codec) {
			snapshot.Overlay(c, b.routers, cmp.Compare[topo.NodeID], 1+device.StateMin, "router for node", nodeID,
				func(c *snapshot.Codec, r *device.Router) { r.State(c) })
		}},
		{name: prefix + secCore, walk: b.coreState},
		{name: prefix + secRegistry, walk: b.Registry.State},
	}
}

func compareFlowKey(a, b packet.FlowKey) int {
	return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst),
		cmp.Compare(a.SrcPort, b.SrcPort), cmp.Compare(a.DstPort, b.DstPort), cmp.Compare(a.Protocol, b.Protocol))
}

func flowKeyState(c *snapshot.Codec, k *packet.FlowKey) {
	snapshot.Uint(c, &k.Src)
	snapshot.Uint(c, &k.Dst)
	snapshot.Uint(c, &k.SrcPort)
	snapshot.Uint(c, &k.DstPort)
	snapshot.Uint(c, &k.Protocol)
}

// trafficSections lists the backbone's traffic-plane sections (flow stats,
// sources, telemetry) under a section name prefix.
func (b *Backbone) trafficSections(prefix string) []section {
	return []section{
		{name: prefix + secFlows, walk: func(c *snapshot.Codec) {
			// A flow writes its five-varint key, then forty-odd bytes of
			// counters and aggregates.
			snapshot.Overlay(c, b.flows, compareFlowKey, 5+40, "flow", flowKeyState,
				func(c *snapshot.Codec, f *trafgen.Flow) { f.State(c) })
		}},
		{name: prefix + secSources, walk: func(c *snapshot.Codec) {
			// Scripted events walk nothing, so no bytes bound the count.
			if c.FixedLen(len(b.sources), 0, "sources") {
				for _, s := range b.sources {
					s.State(c)
				}
			}
		}},
		{name: prefix + secTelemetry, walk: func(c *snapshot.Codec) {
			if !c.Same(b.tel != nil, "telemetry") {
				return
			}
			b.tel.Reg.State(c)
			b.tel.Journal.State(c)
			b.tel.Flows.State(c)
			if c.Loading() {
				// The load renumbered the flow accumulators the slots cache.
				b.siteEpoch++
			}
			if c.Same(b.tel.Watcher != nil, "SLA watcher") {
				b.tel.Watcher.State(c)
			}
		}},
	}
}

// classifyPending walks the event heaps and sorts every pending event into
// its class: control-plane timers as re-arm records, registered actions by
// index into the concatenation of the ases' registries, in order (one
// backbone standalone, every AS of an inter-AS simulation). Data-plane
// events are netsim's to serialize; anything else is a strict error naming
// the offender.
func classifyPending(e *sim.Engine, owns func(sim.Action) bool, ases []*Backbone) (*pendingSet, error) {
	srcOf := func(a sim.Action) (int, bool) {
		offset := 0
		for _, b := range ases {
			if idx, ok := b.srcIndex[a]; ok {
				return offset + idx, true
			}
			offset += len(b.sources)
		}
		return 0, false
	}
	p := &pendingSet{}
	var unknown []string
	e.WalkPending(func(pe sim.PendingEvent) {
		if owns(pe.Act) {
			return // in-flight data plane: serialized and re-armed by netsim
		}
		if t, ok := pe.Act.(*ctlTimer); ok {
			_, domain := t.owner()
			p.timers = append(p.timers, pendingTimer{pe.Shard, pe.At, pe.Seq, t.kind | domain<<4, t.a, t.z})
		} else if idx, ok := srcOf(pe.Act); ok {
			p.srcs = append(p.srcs, pendingSource{idx: idx, shard: pe.Shard, at: pe.At, seq: pe.Seq})
		} else {
			unknown = append(unknown, fmt.Sprintf("action %T at %v", pe.Act, pe.At))
		}
	})
	if len(unknown) > 0 {
		return nil, fmt.Errorf("core: snapshot cannot serialize %d pending event(s): %v", len(unknown), unknown)
	}

	// Canonical order: heap layout depends on push/pop history, so two
	// snapshots of identical simulation state could otherwise serialize
	// their pending events differently. Sorting by (shard, seq) makes the
	// encoding a pure function of state — snapshot(restore(s)) == s.
	slices.SortFunc(p.timers, func(a, b pendingTimer) int { return cmp.Or(cmp.Compare(a.shard, b.shard), cmp.Compare(a.seq, b.seq)) })
	slices.SortFunc(p.srcs, func(a, b pendingSource) int { return cmp.Or(cmp.Compare(a.shard, b.shard), cmp.Compare(a.seq, b.seq)) })
	return p, nil
}

// pendingState walks the pending set; the restore re-arms it once every
// section is in.
func pendingState(c *snapshot.Codec, e *sim.Engine, p *pendingSet) {
	snapshot.Slice(c, &p.timers, 6, func(c *snapshot.Codec, t *pendingTimer) {
		snapshot.Int(c, &t.shard)
		snapshot.Int(c, &t.at)
		snapshot.Uint(c, &t.seq)
		snapshot.Uint(c, &t.kind)
		snapshot.Uint(c, &t.a)
		snapshot.Uint(c, &t.z)
	})
	snapshot.Slice(c, &p.srcs, 4, func(c *snapshot.Codec, s *pendingSource) {
		snapshot.Int(c, &s.idx)
		snapshot.Int(c, &s.shard)
		snapshot.Int(c, &s.at)
		snapshot.Uint(c, &s.seq)
	})
	if !c.Loaded() {
		return
	}
	// A shard the rebuilt engine does not have cannot be re-armed on.
	shards := len(e.Schedulers()) - 1
	onEngine := func(shard int) bool {
		if shard < sim.GlobalBand || shard >= shards {
			c.Mismatch("pending event on shard %d, scenario has %d", shard, shards)
		}
		return c.Err() == nil
	}
	for _, t := range p.timers {
		if !onEngine(t.shard) {
			return
		}
	}
	for _, s := range p.srcs {
		if !onEngine(s.shard) {
			return
		}
	}
}

// rearm re-arms every pending control timer and registered action on e,
// once every section is in. A timer goes to the backbone its domain names
// (ases[domain-1]; the one standalone backbone for domain 0 without x) or,
// domain 0 with x, to x's plane; a tick must drive a plane the rebuild has
// switched on. A registered action goes by its index into the
// concatenation of the ases' registries.
func (p *pendingSet) rearm(e *sim.Engine, ases []*Backbone, x *InterAS) error {
	for _, t := range p.timers {
		var b *Backbone
		switch domain := int(t.kind >> 4); {
		case domain > len(ases):
			return fmt.Errorf("%w: pending timer with domain %d, %d ASes", snapshot.ErrCorrupt, domain, len(ases))
		case domain > 0:
			b = ases[domain-1]
		case x == nil:
			b = ases[0]
		}
		kind := t.kind & timerKindMask
		ok := kind >= timerReconverge && kind <= timerPeering && (kind == timerPeering) == (b == nil)
		switch {
		case !ok || kind < timerHello:
		case kind == timerHello:
			ok = b.surv != nil
		case kind == timerRefresh || kind == timerProbe:
			ok = b.res != nil
		case kind == timerFlowRoll:
			ok = b.tel != nil
		default:
			ok = x.peer != nil && x.peer.surv != nil
		}
		if !ok {
			return fmt.Errorf("%w: control timer kind %d in domain %d", snapshot.ErrCorrupt, kind, t.kind>>4)
		}
		e.RestoreAction(t.shard, t.at, t.seq, &ctlTimer{b: b, x: x, kind: kind, a: t.a, z: t.z, seq: t.seq})
	}
	for _, s := range p.srcs {
		src, idx := trafgen.Source(nil), s.idx
		for _, b := range ases {
			if idx >= 0 && idx < len(b.sources) {
				src = b.sources[idx]
				break
			}
			idx -= len(b.sources)
		}
		if src == nil {
			return fmt.Errorf("%w: pending event for registered action %d, beyond those registered", snapshot.ErrMismatch, s.idx)
		}
		e.RestoreAction(s.shard, s.at, s.seq, src)
	}
	return nil
}

func compareLinkPair(a, b linkPair) int {
	return cmp.Or(cmp.Compare(a.lo, b.lo), cmp.Compare(a.hi, b.hi))
}

func linkPairState(c *snapshot.Codec, p *linkPair) {
	snapshot.Int(c, &p.lo)
	snapshot.Int(c, &p.hi)
}

func nodeSetState(c *snapshot.Codec, set *map[topo.NodeID]bool) {
	snapshot.Set(c, set, cmp.Compare[topo.NodeID], 1, snapshot.Int[topo.NodeID])
}

// lspRef walks a reference to a signalled LSP as its ID, -1 for none. A
// load resolves it against the RSVP state restored in the section before.
func (b *Backbone) lspRef(c *snapshot.Codec, l **rsvp.LSP) {
	id := -1
	if *l != nil {
		id = (*l).ID
	}
	snapshot.Int(c, &id)
	if !c.Loaded() {
		return
	}
	*l = nil
	if id < 0 {
		return
	}
	if b.RSVP != nil {
		*l, _ = b.RSVP.Get(id)
	}
	if *l == nil {
		c.Corrupt("reference to LSP %d, absent from the checkpoint", id)
	}
}

// teRequestMin is the fewest bytes teRequestState writes: two float64s,
// the options' flag and four varints, and twelve more one-byte fields.
const teRequestMin = 16 + 5 + 12

func (b *Backbone) teRequestState(c *snapshot.Codec, req *teRequest) {
	snapshot.Int(c, &req.id)
	c.Str(&req.name)
	snapshot.Int(c, &req.ingress)
	snapshot.Int(c, &req.egress)
	c.Str(&req.vpn)
	c.F64(&req.bandwidth)
	snapshot.Int(c, &req.class)

	if c.Has(req.opt.Explicit != nil) {
		if c.Loading() {
			req.opt.Explicit = &topo.Path{}
		}
		rsvp.PathState(c, req.opt.Explicit)
	}
	snapshot.Int(c, &req.opt.SetupPri)
	snapshot.Int(c, &req.opt.HoldPri)
	snapshot.Int(c, &req.opt.ClassType)
	snapshot.Set(c, &req.opt.Avoid, cmp.Compare[topo.LinkID], 1, snapshot.Int[topo.LinkID])

	b.lspRef(c, &req.lsp)
	c.F64(&req.fullBandwidth)
	snapshot.Int(c, &req.fullClassType)
	c.Bool(&req.degraded)
	snapshot.Int(c, &req.attempts)
	c.Bool(&req.retryPending)
	c.Bool(&req.removed)
}

// coreState walks the backbone's own dynamic bookkeeping: fault maps, TE
// intents, bypass bindings, survivability sessions, the telemetry
// utilization cache, and the delta-reconvergence queue.
func (b *Backbone) coreState(c *snapshot.Codec) {
	snapshot.Int(c, &b.IsolationViolations)
	snapshot.Int(c, &b.teReqSeq)
	snapshot.Set(c, &b.failedLinks, compareLinkPair, 2, linkPairState)
	nodeSetState(c, &b.nodeDown)
	nodeSetState(c, &b.ctrlDown)
	snapshot.Set(c, &b.cutSites, cmp.Compare[string], 1, (*snapshot.Codec).Str)
	snapshot.Ptrs(c, &b.teRequests, teRequestMin, b.teRequestState)

	if c.Has(b.bypasses != nil) {
		snapshot.Map(c, &b.bypasses, cmp.Compare[topo.LinkID], 2, snapshot.Int[topo.LinkID], func(c *snapshot.Codec, l **rsvp.LSP) {
			if b.lspRef(c, l); c.Loaded() && *l == nil {
				c.Corrupt("bypass without an LSP")
			}
		})
	} else {
		b.bypasses = nil
	}

	if c.Same(b.surv != nil, "survivability") {
		s := b.surv
		snapshot.Int(c, &s.flaps)
		snapshot.Int(c, &s.restores)
		snapshot.Int(c, &s.staleSwept)
		snapshot.Int(c, &s.withdrawn)
		snapshot.Int(c, &s.damped)
		snapshot.Int(c, &s.reused)
		snapshot.MapPtrs(c, &s.sess, cmp.Compare[topo.NodeID], 4, snapshot.Int[topo.NodeID], func(c *snapshot.Codec, st *survSession) {
			snapshot.Int(c, &st.state)
			snapshot.Int(c, &st.misses)
			snapshot.Int(c, &st.grDeadline)
		})
	}

	// Per link, the tx bytes at the last interval roll and the utilization
	// over that interval: a varint and a float64.
	n := c.Len(len(b.telPrevTx), 9)
	if c.Loading() {
		b.telPrevTx, b.telLastUtil = make([]int64, n), make([]float64, n)
	}
	for i := range b.telPrevTx {
		snapshot.Int(c, &b.telPrevTx[i])
		c.F64(&b.telLastUtil[i])
	}

	// Delta-reconvergence queue: the single-link flaps awaiting the next
	// reconvergence, in arrival order (it is a queue, not a set), and the
	// wider-event marker that forces the full rebuild. A checkpoint taken
	// inside a detection window must resume with the same reconvergence
	// mode or the IGP message counters diverge from the uninterrupted run.
	snapshot.Slice(c, &b.pendingLinks, 2, linkPairState)
	c.Bool(&b.pendingFull)

	if c.Loading() {
		// The TE plain-path cache is derived state: anything the builder
		// pre-computed reflects pre-restore topology, so it goes.
		b.dropTECache()
	}
}
