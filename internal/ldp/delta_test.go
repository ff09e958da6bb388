package ldp

import (
	"bytes"
	"fmt"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/mpls"
	"mplsvpn/internal/ospf"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

// duplex is one undirected link of a test topology.
type duplex struct{ a, z topo.NodeID }

// flapNet is a random topology with an IGP and the LDP instance under test,
// plus what the flap generator needs to know about it.
type flapNet struct {
	g     *topo.Graph
	igp   *ospf.Domain
	p     *Protocol
	links []duplex
	// deg2 lists nodes with exactly two links: failing both partitions them.
	deg2 []topo.NodeID
	rng  *sim.Rand
}

// newFlapNet builds a ring of unit-metric links (equal-cost ties between
// opposite nodes), random chords of metric 1-2, and a few degree-2 nodes
// hung between two ring nodes, with no parallel links.
func newFlapNet(seed uint64, mode Mode, disablePHP bool) *flapNet {
	rng := sim.NewRand(seed)
	g := topo.New()
	ring := 4 + 2*rng.Intn(3)
	var links []duplex
	have := map[duplex]bool{}
	add := func(a, z topo.NodeID, metric int) {
		if a > z {
			a, z = z, a
		}
		if a == z || have[duplex{a, z}] {
			return
		}
		have[duplex{a, z}] = true
		g.AddDuplexLink(a, z, 1e9, sim.Millisecond, metric)
		links = append(links, duplex{a, z})
	}
	for i := 0; i < ring; i++ {
		g.AddNode(fmt.Sprintf("r%d", i))
	}
	for i := 0; i < ring; i++ {
		add(topo.NodeID(i), topo.NodeID((i+1)%ring), 1)
	}
	for c := rng.Intn(4); c > 0; c-- {
		add(topo.NodeID(rng.Intn(ring)), topo.NodeID(rng.Intn(ring)), 1+rng.Intn(2))
	}
	for s := 1 + rng.Intn(2); s > 0; s-- {
		n := g.AddNode(fmt.Sprintf("s%d", s))
		a := rng.Intn(ring)
		add(n, topo.NodeID(a), 1)
		add(n, topo.NodeID((a+1+rng.Intn(ring-1))%ring), 1)
	}
	net := &flapNet{g: g, links: links, rng: rng}
	degree := map[topo.NodeID]int{}
	for _, l := range links {
		degree[l.a]++
		degree[l.z]++
	}
	for n := topo.NodeID(0); int(n) < g.NumNodes(); n++ {
		if degree[n] == 2 {
			net.deg2 = append(net.deg2, n)
		}
	}
	net.igp = ospf.NewDomain(g)
	net.igp.Converge()
	for _, in := range net.igp.Instances {
		in.AppendChangedDests(nil)
	}
	net.p = newLDP(g, net.igp, mode, disablePHP)
	return net
}

func newLDP(g *topo.Graph, igp *ospf.Domain, mode Mode, disablePHP bool) *Protocol {
	p := New(g, igp)
	p.Mode = mode
	p.DisablePHP = disablePHP
	p.Converge()
	return p
}

func (n *flapNet) down(l duplex) bool {
	fl, _ := n.g.FindLink(l.a, l.z)
	return fl.Down
}

// component labels every node with the lowest node ID it can reach over up
// links.
func (n *flapNet) component() []topo.NodeID {
	comp := make([]topo.NodeID, n.g.NumNodes())
	for i := range comp {
		comp[i] = -1
	}
	for root := range comp {
		if comp[root] >= 0 {
			continue
		}
		stack := []topo.NodeID{topo.NodeID(root)}
		comp[root] = topo.NodeID(root)
		for len(stack) > 0 {
			at := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, lid := range n.g.OutLinks(at) {
				l := n.g.Link(lid)
				if !l.Down && comp[l.To] < 0 {
					comp[l.To] = topo.NodeID(root)
					stack = append(stack, l.To)
				}
			}
		}
	}
	return comp
}

func (n *flapNet) connected() bool {
	for _, c := range n.component() {
		if c != 0 {
			return false
		}
	}
	return true
}

// flap toggles one link and tells the IGP.
func (n *flapNet) flap(l duplex, flapped *[][2]topo.NodeID) {
	n.g.SetLinkDown(l.a, l.z, !n.down(l))
	n.igp.NotifyLinkChange(l.a, l.z)
	*flapped = append(*flapped, [2]topo.NodeID{l.a, l.z})
}

// nextFlap picks a link to toggle. While the graph is partitioned only a
// restore that joins two components is legal: NotifyLinkChange re-floods the
// two endpoints' LSAs and nothing else, so an island never hears of a flap
// inside another island, not even after the heal, and the IGP's routes —
// which both the delta and its oracle start from — would stop describing
// one consistent topology.
func (n *flapNet) nextFlap() duplex {
	comp := n.component()
	var legal []duplex
	for _, l := range n.links {
		if comp[l.a] != comp[l.z] {
			legal = append(legal, l)
		}
	}
	if len(legal) == 0 {
		legal = n.links
	}
	return legal[n.rng.Intn(len(legal))]
}

// pass plays one reconvergence: a batch of flaps, the IGP's changed sets
// drained once, the delta applied. It returns the pairs the delta reports
// and the pairs the changed sets and endpoints call for.
func (n *flapNet) pass() (got, want int) {
	var flapped [][2]topo.NodeID
	switch kind := n.rng.Intn(6); {
	case !n.connected() || kind < 2:
		n.flap(n.nextFlap(), &flapped)
	case kind < 4: // two flaps in one pass: often two links down at once
		n.flap(n.nextFlap(), &flapped)
		n.flap(n.nextFlap(), &flapped)
	case kind == 4: // fail and restore inside one detection window
		l := n.nextFlap()
		n.flap(l, &flapped)
		n.flap(l, &flapped)
	default: // cut a degree-2 node off; later passes heal it link by link
		node := n.deg2[n.rng.Intn(len(n.deg2))]
		for _, l := range n.links {
			if (l.a == node || l.z == node) && !n.down(l) && n.connected() {
				n.flap(l, &flapped)
			}
		}
		if len(flapped) == 0 {
			n.flap(n.nextFlap(), &flapped)
		}
	}
	endpoint := map[topo.NodeID]bool{}
	for _, f := range flapped {
		endpoint[f[0]], endpoint[f[1]] = true, true
	}
	changed := map[topo.NodeID][]topo.NodeID{}
	want = len(endpoint) * (n.g.NumNodes() - 1)
	for _, in := range n.igp.Instances {
		changed[in.Node] = in.AppendChangedDests(nil)
		if !endpoint[in.Node] {
			want += len(changed[in.Node])
		}
	}
	return n.p.ApplyIGPDelta(flapped, changed), want
}

func loopbackFEC(n topo.NodeID) addr.Prefix { return addr.HostPrefix(ospf.Loopback(n)) }

// heard returns the label sp holds as learned from neighbour nbr for fec.
func (sp *Speaker) heard(fec addr.Prefix, nbr topo.NodeID) (packet.Label, bool) {
	row := sp.fromNeighbor[sp.p.fecRank(fec)]
	if i, ok := find(row, sp.p.idx.Of(nbr)); ok {
		return row[i].label, true
	}
	return 0, false
}

// checkAgainstOracle compares the delta-maintained instance with a fresh
// instance flooded from nothing on the same graph and IGP.
func (n *flapNet) checkAgainstOracle(t *testing.T, step int) {
	t.Helper()
	p := n.p
	oracle := newLDP(n.g, n.igp, p.Mode, p.DisablePHP)
	comp := n.component()
	nodes := p.idx.Nodes
	for _, at := range nodes {
		sp, osp := p.Speaker(at), oracle.Speaker(at)
		if sp.LFIB.ILMSize() != osp.LFIB.ILMSize() || sp.FTN.Size() != osp.FTN.Size() {
			t.Fatalf("step %d: %s has ilm=%d ftn=%d, oracle ilm=%d ftn=%d", step, n.g.Name(at),
				sp.LFIB.ILMSize(), sp.FTN.Size(), osp.LFIB.ILMSize(), osp.FTN.Size())
		}
		for _, d := range nodes {
			if d == at {
				continue
			}
			fec := loopbackFEC(d)
			ftn, ok := sp.FTN.LookupAll(ospf.Loopback(d))
			oftn, ook := osp.FTN.LookupAll(ospf.Loopback(d))
			if ok != ook || len(ftn) != len(oftn) {
				t.Fatalf("step %d: FTN %s->%s has %d members, oracle %d", step, n.g.Name(at), n.g.Name(d), len(ftn), len(oftn))
			}
			var ilm []mpls.NHLFE
			if local, have := sp.LocalBinding(fec); have {
				ilm, _ = sp.LFIB.LookupILMAll(local)
			}
			if len(ilm) != len(ftn) {
				t.Fatalf("step %d: %s->%s has %d ILM members and %d FTN members", step, n.g.Name(at), n.g.Name(d), len(ilm), len(ftn))
			}
			for i, e := range ftn {
				if e.OutLink != oftn[i].OutLink || ilm[i].OutLink != e.OutLink {
					t.Fatalf("step %d: %s->%s member %d leaves by link %d (ILM %d), oracle %d",
						step, n.g.Name(at), n.g.Name(d), i, e.OutLink, ilm[i].OutLink, oftn[i].OutLink)
				}
				if e.BypassLabel != 0 || ilm[i].BypassLabel != 0 {
					t.Fatalf("step %d: %s->%s member %d keeps a bypass", step, n.g.Name(at), n.g.Name(d), i)
				}
				nbr := n.g.Link(e.OutLink).To
				want, _ := p.Speaker(nbr).LocalBinding(fec)
				if e.OutLabel != want || ilm[i].OutLabel != want || e.Op != mpls.OpPush || ilm[i].Op != mpls.OpSwap {
					t.Fatalf("step %d: %s->%s via %s carries label %d/%d, neighbour binds %d",
						step, n.g.Name(at), n.g.Name(d), n.g.Name(nbr), e.OutLabel, ilm[i].OutLabel, want)
				}
				if got, have := sp.heard(fec, nbr); !have || got != want {
					t.Fatalf("step %d: %s installed %s's label for %s without having learned it", step, n.g.Name(at), n.g.Name(nbr), n.g.Name(d))
				}
			}
			if comp[at] == comp[d] {
				if _, err := p.TraceLSP(at, d); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			} else if ok {
				t.Fatalf("step %d: %s keeps an FTN entry for unreachable %s", step, n.g.Name(at), n.g.Name(d))
			}
		}
		// The retention database: everything the flood's holds, and nothing
		// more.
		learned := 0
		for f, row := range osp.fromNeighbor {
			for _, b := range row {
				learned++
				fec, nbr := p.fec(f), nodes[b.from]
				got, have := sp.heard(fec, nbr)
				if want, _ := p.Speaker(nbr).LocalBinding(fec); !have || got != want {
					t.Fatalf("step %d: %s lacks %s's binding for %v (have %v: %d, want %d)", step, n.g.Name(at), n.g.Name(nbr), fec, have, got, want)
				}
			}
		}
		for _, byN := range sp.fromNeighbor {
			learned -= len(byN)
		}
		if learned != 0 {
			t.Fatalf("step %d: %s retains %d bindings the flood's database does not hold", step, n.g.Name(at), -learned)
		}
	}
}

// Property: after every reconvergence pass of a random fail/restore script
// — single flaps, two links down at once, a fail and restore inside one
// pass, a degree-2 node cut off and healed — the delta-maintained instance
// has the forwarding state a fresh Converge builds on the same graph and
// IGP: same FTN keys and ILM size per router, the same ordered out-link list
// per (router, FEC), every out-label the neighbour's own binding, a working
// LSP between every connected pair, and the same retention database. The
// pairs re-installed are exactly the changed ones plus the endpoints' FECs.
func TestIncrementalLDPMatchesConvergeAcrossFlapSequences(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for _, mode := range []Mode{Ordered, Independent} {
		for _, disablePHP := range []bool{false, true} {
			for seed := 1; seed <= seeds; seed++ {
				n := newFlapNet(uint64(seed), mode, disablePHP)
				n.checkAgainstOracle(t, -1)
				partitioned := 0
				for step := 0; step < 30; step++ {
					got, want := n.pass()
					if got != want {
						t.Fatalf("mode %v php-off %v seed %d step %d: %d pairs re-installed, want %d", mode, disablePHP, seed, step, got, want)
					}
					n.checkAgainstOracle(t, step)
					if !n.connected() {
						partitioned++
					}
				}
				if seed == 1 && partitioned == 0 {
					t.Fatalf("mode %v seed 1 never partitioned: the generator lost its partition case", mode)
				}
			}
		}
	}
}

// tableBytes serializes every speaker's ILM and FTN.
func tableBytes(p *Protocol) []byte {
	var w snapshot.Writer
	c := snapshot.Saver(&w)
	for _, sp := range p.Speakers {
		sp.LFIB.State(c)
		sp.FTN.State(c)
	}
	return w.Data()
}

func allocated(p *Protocol) int {
	total := 0
	for _, sp := range p.Speakers {
		total += sp.Alloc.Allocated()
	}
	return total
}

// Exact gates: over 100 flaps that never partition the graph LDP allocates
// no label, and a failure followed by its restore returns every table to
// its pre-failure bytes, labels included.
func TestIncrementalLDPKeepsLabelsAcrossFlaps(t *testing.T) {
	n := newFlapNet(7, Ordered, false)
	before := allocated(n.p)
	flaps := 0
	for flaps < 100 {
		l := n.links[n.rng.Intn(len(n.links))]
		wasUp := !n.down(l)
		pre := tableBytes(n.p)
		if !n.failAndReconverge(l) {
			continue // would partition
		}
		flaps++
		if !wasUp {
			continue
		}
		// The link just failed; restoring it must undo the failure exactly.
		n.failAndReconverge(l)
		flaps++
		if !bytes.Equal(pre, tableBytes(n.p)) {
			t.Fatalf("flap %d: fail+restore of %s-%s did not return the tables to their pre-failure bytes",
				flaps, n.g.Name(l.a), n.g.Name(l.z))
		}
	}
	if got := allocated(n.p) - before; got != 0 {
		t.Fatalf("LDP allocated %d labels over %d flaps on a connected graph, want 0", got, flaps)
	}
	n.checkAgainstOracle(t, flaps)
}

// failAndReconverge toggles l and runs one pass, unless failing l would
// partition the graph (then it changes nothing and returns false).
func (n *flapNet) failAndReconverge(l duplex) bool {
	if !n.down(l) {
		n.g.SetLinkDown(l.a, l.z, true)
		ok := n.connected()
		n.g.SetLinkDown(l.a, l.z, false)
		if !ok {
			return false
		}
	}
	var flapped [][2]topo.NodeID
	n.flap(l, &flapped)
	changed := map[topo.NodeID][]topo.NodeID{}
	for _, in := range n.igp.Instances {
		changed[in.Node] = in.AppendChangedDests(nil)
	}
	n.p.ApplyIGPDelta(flapped, changed)
	return true
}

// The delta's message counts are what RFC 5036 downstream-unsolicited with
// liberal retention would send: nothing for a next-hop change, every
// advertised binding each way when an adjacency comes up, one withdraw or
// mapping per neighbour when a FEC stops or starts being reachable.
func TestIncrementalLDPMessageCounts(t *testing.T) {
	// A 4-ring with a stub S hung off r0 alone: r0-S is a bridge.
	g := topo.New()
	var r [4]topo.NodeID
	for i := range r {
		r[i] = g.AddNode(fmt.Sprintf("r%d", i))
	}
	for i := range r {
		g.AddDuplexLink(r[i], r[(i+1)%4], 1e9, sim.Millisecond, 1)
	}
	s := g.AddNode("S")
	g.AddDuplexLink(r[0], s, 1e9, sim.Millisecond, 1)
	igp := ospf.NewDomain(g)
	igp.Converge()
	for _, in := range igp.Instances {
		in.AppendChangedDests(nil)
	}
	p := newLDP(g, igp, Ordered, false)
	rounds := p.Rounds

	pass := func(a, z topo.NodeID, down bool) int {
		g.SetLinkDown(a, z, down)
		igp.NotifyLinkChange(a, z)
		changed := map[topo.NodeID][]topo.NodeID{}
		for _, in := range igp.Instances {
			changed[in.Node] = in.AppendChangedDests(nil)
		}
		before := p.MessagesSent
		p.ApplyIGPDelta([][2]topo.NodeID{{a, z}}, changed)
		return p.MessagesSent - before
	}

	// A ring link fails: every FEC stays reachable everywhere, next hops
	// move, nothing is sent.
	if got := pass(r[1], r[2], true); got != 0 {
		t.Fatalf("next-hop change sent %d messages, want 0", got)
	}
	// It returns: r1 and r2 each send the other all 5 bindings they hold.
	if got := pass(r[1], r[2], false); got != 10 {
		t.Fatalf("adjacency up sent %d messages, want 10", got)
	}
	// The bridge fails. S loses its only session, so it has nobody to send
	// to; r0 withdraws S's FEC from r1 and r3, and each of those, and r2,
	// from their two ring neighbours: 4 routers x 2 neighbours.
	if got := pass(r[0], s, true); got != 8 {
		t.Fatalf("partition sent %d messages, want 8 withdraws", got)
	}
	if _, ok := p.Speaker(r[2]).FTN.Lookup(ospf.Loopback(s)); ok {
		t.Fatal("r2 keeps an FTN entry for the unreachable S")
	}
	// It heals: r0 and S exchange what they advertise (r0: 4 ring FECs + S's
	// again = 5, S: its own + 4 ring FECs = 5), and the ring's 8 mappings
	// for S's FEC go out again; r0's to S is among the 5.
	if got := pass(r[0], s, false); got != 5+5+8 {
		t.Fatalf("heal sent %d messages, want 18", got)
	}
	if p.Rounds != rounds {
		t.Fatalf("delta moved Rounds from %d to %d", rounds, p.Rounds)
	}
	if _, err := p.TraceLSP(r[2], s); err != nil {
		t.Fatal(err)
	}
	var lbl packet.Label
	if lbl, _ = p.Speaker(r[0]).LocalBinding(loopbackFEC(s)); lbl == 0 {
		t.Fatal("r0 lost its label for S")
	}
}
