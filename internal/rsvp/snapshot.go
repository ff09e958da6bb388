package rsvp

import (
	"cmp"

	"mplsvpn/internal/mpls"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

// PathState walks a path as its link list: a count at least.
func PathState(c *snapshot.Codec, p *topo.Path) {
	snapshot.Slice(c, &p.Links, 1, snapshot.Int[topo.LinkID])
}

// lspMin is the fewest bytes lspState writes: the 8-byte bandwidth, the
// ingress NHLFE, and eleven one-byte varints, names and counts.
const lspMin = 8 + mpls.NHLFEMin + 11

func lspState(c *snapshot.Codec, l *LSP) {
	snapshot.Int(c, &l.ID)
	c.Str(&l.Name)
	snapshot.Int(c, &l.Ingress)
	snapshot.Int(c, &l.Egress)
	c.F64(&l.Bandwidth)
	snapshot.Int(c, &l.SetupPri)
	snapshot.Int(c, &l.HoldPri)
	snapshot.Int(c, &l.ClassType)
	snapshot.Int(c, &l.State)
	PathState(c, &l.Path)
	mpls.NHLFEState(c, &l.Entry)
	snapshot.Slice(c, &l.hopLabels, 1, snapshot.Uint[packet.Label])
	snapshot.Int(c, &l.refreshMisses)
}

// State walks the full signalling state: the ID allocator and message
// counters, every LSP (path, labels, priorities, soft-state misses),
// pending drains, and the DS-TE pools. LSPs are walked by value rather than
// re-signalled at restore — re-signalling would re-run CSPF against the
// *current* topology and could pick different paths or labels than the run
// being resumed actually holds. A load needs the protocol already wired to
// the scenario's graph and label tables (a fresh rebuild).
func (p *Protocol) State(c *snapshot.Codec) {
	snapshot.Int(c, &p.nextID)
	snapshot.Int(c, &p.PathMessages)
	snapshot.Int(c, &p.ResvMessages)
	snapshot.Int(c, &p.Preemptions)
	snapshot.Int(c, &p.SetupFails)
	snapshot.Int(c, &p.Timeouts)
	snapshot.KeyedPtrs(c, &p.lsps, cmp.Compare[int], lspMin, func(l *LSP) int { return l.ID }, lspState)

	snapshot.Int(c, &p.drainSeq)
	// A drain writes its ID, a path and a label count at least.
	snapshot.Map(c, &p.drains, cmp.Compare[int], 3, snapshot.Int[int], func(c *snapshot.Codec, rec *drainRec) {
		PathState(c, &rec.path)
		snapshot.Slice(c, &rec.labels, 1, snapshot.Uint[packet.Label])
	})

	if c.Same(p.DSTE != nil, "DS-TE") {
		snapshot.MapPtrs(c, &p.DSTE.reserved, cmp.Compare[topo.LinkID], 1+8*int(NumClassTypes), snapshot.Int[topo.LinkID],
			func(c *snapshot.Codec, pool *[NumClassTypes]float64) {
				for ct := range pool {
					c.F64(&pool[ct])
				}
			})
	}
}
