// Package rsvp implements RSVP-TE signalling for traffic-engineered LSPs:
// CSPF path computation against the live reservation state, PATH/RESV
// label binding hop by hop, per-link bandwidth admission control, and
// setup/hold preemption priorities.
//
// This layer supplies the paper's missing ingredient: "Without knowledge of
// the commitments already made by the network, it is impossible to route IP
// flows along paths where resources, and therefore QoS, could be
// guaranteed" (§2.2). RSVP-TE tracks those commitments (Link.ReservedBw)
// and lets operators "control QoS and general traffic flow more precisely
// to avoid congested, constrained or disabled links" (§3).
package rsvp

import (
	"fmt"
	"slices"
	"sort"

	"mplsvpn/internal/mpls"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/topo"
)

// State of an LSP.
type State int

// LSP states.
const (
	Up State = iota
	Down
)

func (s State) String() string {
	if s == Up {
		return "up"
	}
	return "down"
}

// EventKind classifies a signalling event reported through OnEvent.
type EventKind int

// Signalling event kinds.
const (
	EventSetup EventKind = iota
	EventSetupFailed
	EventTeardown
	EventPreempted
	EventReoptimized
	EventRefreshTimeout
)

func (k EventKind) String() string {
	switch k {
	case EventSetup:
		return "setup"
	case EventSetupFailed:
		return "setup-failed"
	case EventTeardown:
		return "teardown"
	case EventPreempted:
		return "preempted"
	case EventReoptimized:
		return "reoptimized"
	case EventRefreshTimeout:
		return "refresh-timeout"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one signalling occurrence, reported synchronously through
// Protocol.OnEvent. The telemetry journal subscribes via this callback, so
// rsvp stays free of any telemetry dependency.
type Event struct {
	Kind      EventKind
	LSPID     int
	Name      string
	Ingress   topo.NodeID
	Egress    topo.NodeID
	Bandwidth float64
	Detail    string // deterministic free text (path, error, victim)
}

// LSP is one traffic-engineered label-switched path.
type LSP struct {
	ID        int
	Name      string
	Ingress   topo.NodeID
	Egress    topo.NodeID
	Bandwidth float64 // reserved bits/s
	// Priorities are 0 (most important) to 7. An LSP may preempt others
	// whose HoldPri is numerically greater than its SetupPri.
	SetupPri int
	HoldPri  int

	// ClassType selects the DS-TE bandwidth pool (CT0 when DS-TE is off).
	ClassType ClassType

	State State
	Path  topo.Path
	// Entry is the ingress NHLFE: push Entry.OutLabel toward Entry.OutLink.
	Entry mpls.NHLFE
	// hopLabels[i] is the label assigned at the i-th node of the path
	// (position 0 = ingress push label).
	hopLabels []packet.Label
	// refreshMisses counts consecutive refresh scans that found the path
	// broken; soft-state tears the LSP down once it reaches the limit.
	refreshMisses int
}

// Protocol is the RSVP-TE speaker set for one topology. Label tables are
// shared with LDP through the per-router allocator/LFIB maps.
type Protocol struct {
	G      *topo.Graph
	alloc  map[topo.NodeID]*mpls.Allocator
	lfib   map[topo.NodeID]*mpls.LFIB
	lsps   map[int]*LSP
	nextID int
	// scope, when non-nil, marks the nodes every path search stays within
	// (NewOver); explicit routes are the operator's word and are not checked.
	scope []bool

	// DSTE, when non-nil, enforces per-class-type pool limits on every
	// reservation (RFC 4124 MAM).
	DSTE *DSTE

	// Signalling statistics, totals over the protocol's lifetime.
	PathMessages int
	ResvMessages int
	Preemptions  int
	SetupFails   int
	Timeouts     int // LSPs torn down by soft-state refresh expiry

	// OnEvent, when set, observes every signalling event synchronously.
	OnEvent func(Event)

	// PlainSPF, when set, serves the unconstrained shortest-path tree from
	// the given ingress — the preemption fallback in findPath when no
	// avoid set applies. The core wires this to an incrementally-maintained
	// tree (topo.IncrementalSPF) so re-signalling storms after a failure do
	// not pay a full Dijkstra per LSP. The callback must return a tree
	// equal to G.CSPF(ingress, topo.Constraints{Within: p.Scope()}); constrained
	// searches always run a fresh CSPF, since reservation state shifts under
	// them.
	PlainSPF func(topo.NodeID) *topo.SPFResult

	// Defer, when set, postpones the interior label unbind of a
	// make-before-break switchover (Resignal): the old path's reservation
	// is released immediately, but its ILM entries linger — registered in
	// the drain table under the given id — until the caller invokes
	// RunDrain(id), so packets already in flight on the old labels drain
	// instead of black-holing. Callers with a simulation engine schedule
	// RunDrain after the drain delay; nil unbinds synchronously. Keeping
	// drains as table entries (not captured closures) is what lets a
	// checkpoint serialize and a restore re-arm them.
	Defer func(id int)

	// drains holds the label state of paths pending their deferred unbind.
	drains   map[int]drainRec
	drainSeq int
}

// drainRec is one pending make-before-break unbind: the old path and its
// interior labels, kept switchable until the drain window elapses.
type drainRec struct {
	path   topo.Path
	labels []packet.Label
}

// New creates the protocol. alloc and lfib give each router's shared label
// machinery; missing entries are created on demand.
func New(g *topo.Graph, alloc map[topo.NodeID]*mpls.Allocator, lfib map[topo.NodeID]*mpls.LFIB) *Protocol {
	if alloc == nil {
		alloc = make(map[topo.NodeID]*mpls.Allocator)
	}
	if lfib == nil {
		lfib = make(map[topo.NodeID]*mpls.LFIB)
	}
	return &Protocol{G: g, alloc: alloc, lfib: lfib, lsps: make(map[int]*LSP), nextID: 1,
		drains: make(map[int]drainRec), drainSeq: 1}
}

// NewOver creates the protocol over the given nodes only — the provider's
// interior, as ospf.NewDomainOver and ldp.NewOver scope the IGP and LDP.
// Customer nodes sharing the graph are invisible to CSPF, the preemption
// fallback and bypass computation: a dual-homed site is never a transit hop
// of a provider LSP, however cheap the detour through it looks.
func NewOver(g *topo.Graph, alloc map[topo.NodeID]*mpls.Allocator, lfib map[topo.NodeID]*mpls.LFIB, nodes []topo.NodeID) *Protocol {
	p := New(g, alloc, lfib)
	p.scope = g.NodeMask(nodes)
	return p
}

// Scope is the node mask every path search stays within (nil: the whole
// graph). A PlainSPF callback searches under it rather than cutting its own.
func (p *Protocol) Scope() []bool { return p.scope }

func (p *Protocol) allocFor(n topo.NodeID) *mpls.Allocator {
	a, ok := p.alloc[n]
	if !ok {
		a = mpls.NewAllocator()
		p.alloc[n] = a
	}
	return a
}

// LFIBFor returns router n's label forwarding table, creating it if needed.
func (p *Protocol) LFIBFor(n topo.NodeID) *mpls.LFIB {
	f, ok := p.lfib[n]
	if !ok {
		f = mpls.NewLFIB()
		p.lfib[n] = f
	}
	return f
}

// LSPs returns all LSPs sorted by ID.
func (p *Protocol) LSPs() []*LSP {
	out := make([]*LSP, 0, len(p.lsps))
	for _, l := range p.lsps {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns the LSP with the given id.
func (p *Protocol) Get(id int) (*LSP, bool) {
	l, ok := p.lsps[id]
	return l, ok
}

// SetupOptions refine LSP establishment.
type SetupOptions struct {
	// Explicit pins the path instead of running CSPF (an explicit-route
	// object). Bandwidth admission still applies.
	Explicit *topo.Path
	SetupPri int // default 4
	HoldPri  int // default 4
	// ClassType selects the DS-TE pool (meaningful when Protocol.DSTE set).
	ClassType ClassType
	// Avoid excludes links from path computation — the congestion-aware
	// constraint ReoptimizeAvoiding uses to steer an LSP off hot links.
	Avoid map[topo.LinkID]bool
}

// Setup signals a TE LSP from ingress to egress reserving bandwidth bits/s.
// Path selection is CSPF over links with enough unreserved bandwidth; if no
// path exists, lower-priority LSPs are preempted where that frees one.
func (p *Protocol) Setup(name string, ingress, egress topo.NodeID, bandwidth float64, opt SetupOptions) (*LSP, error) {
	if opt.SetupPri == 0 && opt.HoldPri == 0 {
		opt.SetupPri, opt.HoldPri = 4, 4
	}
	if opt.HoldPri > opt.SetupPri {
		// A holder weaker than its own setup invites preemption loops;
		// clamp as real implementations do.
		opt.HoldPri = opt.SetupPri
	}

	path, err := p.findPath(ingress, egress, bandwidth, opt)
	if err != nil {
		p.SetupFails++
		p.emit(Event{Kind: EventSetupFailed, Name: name, Ingress: ingress, Egress: egress,
			Bandwidth: bandwidth, Detail: err.Error()})
		return nil, err
	}

	l := &LSP{
		ID: p.nextID, Name: name,
		Ingress: ingress, Egress: egress,
		Bandwidth: bandwidth,
		SetupPri:  opt.SetupPri, HoldPri: opt.HoldPri,
		ClassType: opt.ClassType,
		Path:      *path, State: Up,
	}
	p.nextID++
	p.signal(l)
	p.lsps[l.ID] = l
	p.emit(Event{Kind: EventSetup, LSPID: l.ID, Name: l.Name, Ingress: l.Ingress,
		Egress: l.Egress, Bandwidth: l.Bandwidth, Detail: "path " + p.pathString(l.Path)})
	return l, nil
}

func (p *Protocol) emit(e Event) {
	if p.OnEvent != nil {
		p.OnEvent(e)
	}
}

// pathString renders a path as dash-joined node names.
func (p *Protocol) pathString(path topo.Path) string {
	s := ""
	for i, n := range path.Nodes(p.G) {
		if i > 0 {
			s += "-"
		}
		s += p.G.Name(n)
	}
	return s
}

// findPath runs CSPF, preempting weaker LSPs if necessary.
func (p *Protocol) findPath(ingress, egress topo.NodeID, bw float64, opt SetupOptions) (*topo.Path, error) {
	if opt.Explicit != nil {
		for _, lid := range opt.Explicit.Links {
			l := p.G.Link(lid)
			if l.Down {
				return nil, fmt.Errorf("rsvp: explicit route uses down link %d", lid)
			}
			if opt.Avoid[lid] {
				return nil, fmt.Errorf("rsvp: explicit route uses avoided link %d", lid)
			}
			if !p.poolFits(l, opt.ClassType, bw) {
				return nil, fmt.Errorf("rsvp: DS-TE pool %v exhausted on link %d", opt.ClassType, lid)
			}
			if l.AvailableBw() < bw && !p.preemptOn(lid, bw, opt.SetupPri) {
				return nil, fmt.Errorf("rsvp: admission control rejects explicit route on link %d (%s->%s): need %.0f, have %.0f",
					lid, p.G.Name(l.From), p.G.Name(l.To), bw, l.AvailableBw())
			}
		}
		return opt.Explicit, nil
	}

	exclude := p.poolExclusions(opt.ClassType, bw)
	if len(opt.Avoid) > 0 {
		if exclude == nil {
			exclude = map[topo.LinkID]bool{}
		}
		for lid := range opt.Avoid {
			exclude[lid] = true
		}
	}
	res := p.G.CSPF(ingress, topo.Constraints{MinAvailableBw: bw, ExcludeLinks: exclude, Within: p.scope})
	if path, ok := res.PathTo(p.G, egress); ok {
		return &path, nil
	}

	// No room: attempt preemption along the shortest path that still honours
	// the avoid set (bandwidth is negotiable via preemption; avoidance is not).
	var plain *topo.SPFResult
	if p.PlainSPF != nil && len(opt.Avoid) == 0 {
		plain = p.PlainSPF(ingress)
	} else {
		plain = p.G.CSPF(ingress, topo.Constraints{ExcludeLinks: opt.Avoid, Within: p.scope})
	}
	path, ok := plain.PathTo(p.G, egress)
	if !ok {
		return nil, fmt.Errorf("rsvp: no route %s -> %s", p.G.Name(ingress), p.G.Name(egress))
	}
	for _, lid := range path.Links {
		l := p.G.Link(lid)
		if !p.poolFits(l, opt.ClassType, bw) {
			// Preemption cannot help a pool cap: the pool is a policy
			// limit, not a capacity conflict.
			return nil, fmt.Errorf("rsvp: DS-TE pool %v exhausted on link %d", opt.ClassType, lid)
		}
		if l.AvailableBw() >= bw {
			continue
		}
		if !p.preemptOn(lid, bw, opt.SetupPri) {
			return nil, fmt.Errorf("rsvp: insufficient bandwidth %s -> %s for %.0f b/s", p.G.Name(ingress), p.G.Name(egress), bw)
		}
	}
	return &path, nil
}

// poolFits checks the DS-TE pool when enabled.
func (p *Protocol) poolFits(l *topo.Link, ct ClassType, bw float64) bool {
	if p.DSTE == nil {
		return true
	}
	return p.DSTE.Fits(l, ct, bw)
}

// poolExclusions prunes links whose DS-TE pool cannot take bw of class ct.
func (p *Protocol) poolExclusions(ct ClassType, bw float64) map[topo.LinkID]bool {
	if p.DSTE == nil {
		return nil
	}
	ex := map[topo.LinkID]bool{}
	for i := 0; i < p.G.NumLinks(); i++ {
		lid := topo.LinkID(i)
		if !p.DSTE.Fits(p.G.Link(lid), ct, bw) {
			ex[lid] = true
		}
	}
	return ex
}

// preemptOn tears down weaker LSPs using link lid until bw fits. Returns
// success.
func (p *Protocol) preemptOn(lid topo.LinkID, bw float64, setupPri int) bool {
	link := p.G.Link(lid)
	// Victims: LSPs on this link with hold priority weaker (greater) than
	// our setup priority, weakest first, then largest first.
	var victims []*LSP
	for _, l := range p.lsps {
		if l.State != Up || l.HoldPri <= setupPri {
			continue
		}
		for _, ll := range l.Path.Links {
			if ll == lid {
				victims = append(victims, l)
				break
			}
		}
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].HoldPri != victims[j].HoldPri {
			return victims[i].HoldPri > victims[j].HoldPri
		}
		if victims[i].Bandwidth != victims[j].Bandwidth {
			return victims[i].Bandwidth > victims[j].Bandwidth
		}
		return victims[i].ID < victims[j].ID
	})
	for _, v := range victims {
		if link.AvailableBw() >= bw {
			break
		}
		p.teardown(v.ID, false)
		v.State = Down
		p.Preemptions++
		p.emit(Event{Kind: EventPreempted, LSPID: v.ID, Name: v.Name, Ingress: v.Ingress,
			Egress: v.Egress, Bandwidth: v.Bandwidth,
			Detail: fmt.Sprintf("hold-pri %d lost link %d", v.HoldPri, lid)})
	}
	return link.AvailableBw() >= bw
}

// signal walks the path egress-to-ingress assigning labels and reserving
// bandwidth: the RESV leg of RSVP-TE. PHP is used at the egress.
func (p *Protocol) signal(l *LSP) {
	p.PathMessages += len(l.Path.Links) // PATH downstream
	p.ResvMessages += len(l.Path.Links) // RESV upstream

	nodes := l.Path.Nodes(p.G)
	n := len(nodes)
	l.hopLabels = make([]packet.Label, n)

	// Egress wants PHP: the label "assigned" by the last node is implicit
	// null, handled by its upstream neighbor.
	downstream := packet.LabelImplicitNull
	l.hopLabels[n-1] = downstream
	for i := n - 2; i >= 0; i-- {
		node := nodes[i]
		outLink := l.Path.Links[i]
		if i == 0 {
			// Ingress: no incoming label; it pushes the downstream label.
			l.Entry = mpls.NHLFE{Op: mpls.OpPush, OutLabel: downstream, OutLink: outLink}
			l.hopLabels[0] = downstream
			break
		}
		local := p.allocFor(node).Alloc()
		p.LFIBFor(node).BindILM(local, mpls.NHLFE{Op: mpls.OpSwap, OutLabel: downstream, OutLink: outLink})
		l.hopLabels[i] = local
		downstream = local
	}
	p.addReservation(l, +1)
}

// addReservation adjusts every link ledger on l's path (the global
// ReservedBw and the DS-TE pool): sign +1 reserves, -1 releases.
// Shared-explicit-style re-signalling (Resignal) releases the old LSP's
// reservation around the admission decision so old and new path are
// charged only once where they overlap.
func (p *Protocol) addReservation(l *LSP, sign float64) {
	for _, lid := range l.Path.Links {
		link := p.G.Link(lid)
		link.ReservedBw += sign * l.Bandwidth
		if link.ReservedBw < 0 {
			link.ReservedBw = 0
		}
		if p.DSTE != nil {
			if sign > 0 {
				p.DSTE.Reserve(lid, l.ClassType, l.Bandwidth)
			} else {
				p.DSTE.Release(lid, l.ClassType, l.Bandwidth)
			}
		}
	}
}

// Teardown releases an LSP's reservations and label state.
func (p *Protocol) Teardown(id int) bool { return p.teardown(id, true) }

// Release withdraws an Up LSP silently, ahead of a batch re-signalling that
// reports the replacement instead: the reservation goes at once, so every
// LSP of the batch is admitted against the ledger none of them holds (the
// shared-explicit accounting of Resignal, applied to a set). With drain set
// — the old path still forwards — its interior labels linger until the
// deferred unbind, and a caller that repoints the ingress within the same
// event has moved the LSP make-before-break.
func (p *Protocol) Release(id int, drain bool) bool { return p.teardownMode(id, false, drain) }

// Rebind moves the protocol onto replacement label tables after the caller
// discarded the old ones wholesale (a full reconvergence): every LSP goes
// Down and gives its reservation back, pending drains are forgotten — their
// entries died with the tables — and IDs and counters carry on, so nothing
// signalled afterwards can be mistaken for anything signalled before.
func (p *Protocol) Rebind(lfib map[topo.NodeID]*mpls.LFIB) {
	for _, l := range p.LSPs() {
		p.addReservation(l, -1)
		l.State = Down
	}
	p.lsps = make(map[int]*LSP)
	p.drains = make(map[int]drainRec)
	p.lfib = lfib
}

// ReclaimID returns a torn-down LSP's ID to the allocator when — and only
// when — it was the most recent assignment. Transactional rollback undoes
// setups in reverse order, so LIFO reclaim is exactly enough for a rolled
// back and re-applied batch to sign LSPs with identical IDs, keeping the
// StateDigest (which renders LSP IDs) equal across the round trip.
func (p *Protocol) ReclaimID(id int) bool {
	if _, live := p.lsps[id]; live || id != p.nextID-1 {
		return false
	}
	p.nextID--
	return true
}

// teardown implements Teardown; emit suppresses the generic teardown event
// when the caller reports a more specific one (preemption, reoptimize).
func (p *Protocol) teardown(id int, emit bool) bool {
	return p.teardownMode(id, emit, false)
}

// teardownMode releases an LSP. With drain set (and Defer wired), the
// bandwidth ledgers release immediately but the interior ILM entries stay
// bound until the deferred call runs, so in-flight packets on the old
// labels complete their journey — the make-before-break no-drop guarantee.
func (p *Protocol) teardownMode(id int, emit, drain bool) bool {
	l, ok := p.lsps[id]
	if !ok || l.State != Up {
		return false
	}
	p.addReservation(l, -1)
	rec := drainRec{path: l.Path, labels: l.hopLabels}
	if drain && p.Defer != nil {
		id := p.drainSeq
		p.drainSeq++
		p.drains[id] = rec
		p.Defer(id)
	} else {
		p.unbindDrain(rec)
	}
	l.State = Down
	delete(p.lsps, id)
	if emit {
		p.emit(Event{Kind: EventTeardown, LSPID: l.ID, Name: l.Name, Ingress: l.Ingress,
			Egress: l.Egress, Bandwidth: l.Bandwidth})
	}
	return true
}

// unbindDrain removes the interior ILM entries of a drained path.
func (p *Protocol) unbindDrain(rec drainRec) {
	nodes := rec.path.Nodes(p.G)
	for i := 1; i < len(nodes)-1; i++ {
		if rec.labels[i] != packet.LabelImplicitNull {
			p.LFIBFor(nodes[i]).UnbindILM(rec.labels[i])
		}
	}
}

// RunDrain executes and retires a pending deferred unbind. Running an
// unknown (already-run or never-registered) drain is a no-op, so a restore
// that re-arms drain timers tolerates duplicates safely.
func (p *Protocol) RunDrain(id int) {
	rec, ok := p.drains[id]
	if !ok {
		return
	}
	delete(p.drains, id)
	p.unbindDrain(rec)
}

// PendingDrains lists the ids of drains registered but not yet run, sorted.
func (p *Protocol) PendingDrains() []int {
	ids := make([]int, 0, len(p.drains))
	for id := range p.drains {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// SetupBypass signals a facility-backup bypass tunnel (RFC 4090) around a
// directed link: an LSP from the link's head (the point of local repair)
// to its tail (the merge point) that avoids the protected fibre in both
// directions. Bypass tunnels reserve no bandwidth — they are an insurance
// path, engineered to exist rather than to guarantee rate. held, when not
// nil, is the bypass the link has now: Up on the path just computed it is
// returned as it stands, otherwise it is released before its replacement is
// signalled (or found to have no path).
func (p *Protocol) SetupBypass(name string, protected topo.LinkID, held *LSP) (*LSP, error) {
	l := p.G.Link(protected)
	ex := map[topo.LinkID]bool{protected: true}
	if rev, ok := p.G.Reverse(protected); ok {
		ex[rev.ID] = true
	}
	res := p.G.CSPF(l.From, topo.Constraints{ExcludeLinks: ex, Within: p.scope})
	path, ok := res.PathTo(p.G, l.To)
	if held != nil {
		if ok && held.State == Up && slices.Equal(held.Path.Links, path.Links) {
			return held, nil
		}
		p.Release(held.ID, false)
	}
	if !ok {
		return nil, fmt.Errorf("rsvp: no bypass path around link %s -> %s",
			p.G.Name(l.From), p.G.Name(l.To))
	}
	return p.Setup(name, l.From, l.To, 0, SetupOptions{Explicit: &path, SetupPri: 7, HoldPri: 7})
}

// Reoptimize re-signals an LSP make-before-break: the new path is
// computed and established while the old one still carries traffic, the
// caller swaps its ingress entry, and only then is the old path torn down
// — so re-optimization never drops a packet. Returns the replacement LSP
// (which may ride the same path if nothing better exists).
func (p *Protocol) Reoptimize(id int) (*LSP, error) {
	return p.ReoptimizeAvoiding(id, nil)
}

// ReoptimizeAvoiding re-signals an LSP make-before-break onto a path that
// avoids the given links — the congestion-aware variant the SLA watcher
// drives: the avoid set is the hot links the breached VPN must leave.
func (p *Protocol) ReoptimizeAvoiding(id int, avoid map[topo.LinkID]bool) (*LSP, error) {
	old, ok := p.lsps[id]
	if !ok || old.State != Up {
		return nil, fmt.Errorf("rsvp: LSP %d is not up", id)
	}
	oldPath := p.pathString(old.Path)
	nl, err := p.Resignal(id, old.Bandwidth, SetupOptions{
		SetupPri: old.SetupPri, HoldPri: old.HoldPri, ClassType: old.ClassType,
		Avoid: avoid,
	})
	if err != nil {
		return nil, err
	}
	p.emit(Event{Kind: EventReoptimized, LSPID: nl.ID, Name: nl.Name, Ingress: nl.Ingress,
		Egress: nl.Egress, Bandwidth: nl.Bandwidth,
		Detail: fmt.Sprintf("%s => %s", oldPath, p.pathString(nl.Path))})
	return nl, nil
}

// Resignal replaces an Up LSP make-before-break, possibly at a different
// bandwidth or under different options, with shared-explicit-style
// accounting (RFC 3209 SE): the old LSP's reservation is released around
// the admission decision, so where the old and new paths overlap only the
// difference is charged — an LSP can re-signal onto its own path even
// when the two reservations together would exceed the link. On success
// the old path is released (interior labels drain via Defer when wired)
// and the replacement returned; on failure the old LSP stays up and
// untouched, so there is never a window without committed forwarding
// state. Zero priorities inherit the old LSP's.
func (p *Protocol) Resignal(id int, bandwidth float64, opt SetupOptions) (*LSP, error) {
	old, ok := p.lsps[id]
	if !ok || old.State != Up {
		return nil, fmt.Errorf("rsvp: LSP %d is not up", id)
	}
	if opt.SetupPri == 0 && opt.HoldPri == 0 {
		opt.SetupPri, opt.HoldPri = old.SetupPri, old.HoldPri
	}
	p.addReservation(old, -1)
	nl, err := p.Setup(old.Name, old.Ingress, old.Egress, bandwidth, opt)
	p.addReservation(old, +1)
	if err != nil {
		return nil, fmt.Errorf("rsvp: make-before-break blocked: %w", err)
	}
	p.teardownMode(old.ID, false, true)
	return nl, nil
}

// ReservedOn reports the total bandwidth reserved on a link by up LSPs.
func (p *Protocol) ReservedOn(lid topo.LinkID) float64 {
	return p.G.Link(lid).ReservedBw
}
