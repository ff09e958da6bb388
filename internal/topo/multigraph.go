// Multigraph of autonomous systems: the cross-provider path selector of
// the inter-AS layer. Each AS is a node carrying an abstracted view of its
// own core (a transit delay and capacity — "Topology Abstraction Service
// for IP VPNs" exports exactly this instead of the real topology), and each
// (peering link, inter-AS option) pair is a *distinct* parallel edge, as in
// the inter-IXP multigraph work: two providers peering in three places are
// three edges with independent failure fates, not one.
//
// Selection is a deterministic Dijkstra over AS hops; on boundary failure
// the caller flips the dead edges down and re-selects, and the diff of
// the two trees is what must be re-provisioned.
package topo

// MGNode is one AS in the multigraph with its abstracted internals.
type MGNode struct {
	Name string
	// TransitDelay abstracts the AS's interior crossing cost (seconds);
	// charged whenever a path enters *and leaves* the AS (pure transit).
	TransitDelay float64
	// Capacity abstracts the interior capacity floor (b/s), the most the
	// AS promises to carry in transit. Informational for scoring; not a
	// constraint the selector enforces.
	Capacity float64
}

// MGEdge is one peering interconnect between two ASes. Parallel edges
// between the same pair are distinct (different peering routers, different
// inter-AS options) and fail independently.
type MGEdge struct {
	ID   int // stable, assigned by AddEdge in call order
	A, B string
	// Delay is the boundary-crossing cost in seconds (link propagation
	// plus the option's processing overhead).
	Delay float64
	// Capacity is the peering link's bandwidth (b/s).
	Capacity float64
	// Down marks just this peering failed.
	Down bool
}

// Multigraph is the AS-level topology.
type Multigraph struct {
	nodes map[string]*MGNode
	order []string
	edges []*MGEdge
}

// NewMultigraph returns an empty AS-level topology.
func NewMultigraph() *Multigraph {
	return &Multigraph{nodes: make(map[string]*MGNode)}
}

// AddAS adds one AS node; duplicate names update the abstraction in place.
func (m *Multigraph) AddAS(name string, transitDelay, capacity float64) {
	if n, ok := m.nodes[name]; ok {
		n.TransitDelay, n.Capacity = transitDelay, capacity
		return
	}
	m.nodes[name] = &MGNode{Name: name, TransitDelay: transitDelay, Capacity: capacity}
	m.order = append(m.order, name)
}

// AddEdge adds one peering edge between two known ASes and returns its
// stable ID. Both endpoints must already exist.
func (m *Multigraph) AddEdge(a, b string, delay, capacity float64) int {
	if m.nodes[a] == nil || m.nodes[b] == nil {
		panic("topo: multigraph edge endpoint not added")
	}
	e := &MGEdge{ID: len(m.edges), A: a, B: b, Delay: delay, Capacity: capacity}
	m.edges = append(m.edges, e)
	return e.ID
}

// Edge returns the edge with the given ID.
func (m *Multigraph) Edge(id int) *MGEdge { return m.edges[id] }

// SetEdgeDown marks one peering edge failed or restored.
func (m *Multigraph) SetEdgeDown(id int, down bool) { m.edges[id].Down = down }

// MGHop is one boundary crossing on a selected path.
type MGHop struct {
	EdgeID int
	From   string // AS the packet leaves
	To     string // AS the packet enters
}

// MGPath is a selected AS-level path.
type MGPath struct {
	Hops []MGHop
	// Delay is the total abstract cost: boundary delays plus transit
	// delays of every intermediate AS.
	Delay float64
}

// shortestTree computes the deterministic least-delay tree from origin:
// for every reachable AS, the (delay, parent hop) pair. Ties break on
// (delay, AS insertion order, edge ID) so same-topology selections are
// byte-identical run to run.
func (m *Multigraph) shortestTree(origin string) (dist map[string]float64, parent map[string]MGHop) {
	dist = make(map[string]float64)
	parent = make(map[string]MGHop)
	if _, ok := m.nodes[origin]; !ok {
		return dist, parent
	}
	dist[origin] = 0
	done := make(map[string]bool)
	for {
		// Extract-min by (dist, insertion order).
		cur, best := "", 0.0
		for _, name := range m.order {
			d, ok := dist[name]
			if !ok || done[name] {
				continue
			}
			if cur == "" || d < best {
				cur, best = name, d
			}
		}
		if cur == "" {
			return dist, parent
		}
		done[cur] = true
		// Leaving a non-origin AS in transit charges its interior crossing.
		transit := 0.0
		if cur != origin {
			transit = m.nodes[cur].TransitDelay
		}
		for _, e := range m.edges {
			if e.Down {
				continue
			}
			var to string
			switch cur {
			case e.A:
				to = e.B
			case e.B:
				to = e.A
			default:
				continue
			}
			if done[to] {
				continue
			}
			nd := best + transit + e.Delay
			if d, ok := dist[to]; !ok || nd < d ||
				(nd == d && e.ID < parent[to].EdgeID) {
				dist[to] = nd
				parent[to] = MGHop{EdgeID: e.ID, From: cur, To: to}
			}
		}
	}
}

// SelectPath returns the least-delay AS path from origin to target over up
// edges, or ok=false when the providers are partitioned.
func (m *Multigraph) SelectPath(origin, target string) (MGPath, bool) {
	dist, parent := m.shortestTree(origin)
	d, ok := dist[target]
	if !ok || target == origin {
		return MGPath{}, ok && target == origin
	}
	var rev []MGHop
	for at := target; at != origin; {
		h, ok := parent[at]
		if !ok {
			return MGPath{}, false
		}
		rev = append(rev, h)
		at = h.From
	}
	hops := make([]MGHop, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		hops = append(hops, rev[i])
	}
	return MGPath{Hops: hops, Delay: d}, true
}

// SelectTree returns the least-delay path from origin to every other
// reachable AS, keyed by destination, in one Dijkstra pass — the unit the
// inter-AS layer reconciles per (VPN, origin AS).
func (m *Multigraph) SelectTree(origin string) map[string]MGPath {
	dist, parent := m.shortestTree(origin)
	out := make(map[string]MGPath, len(dist))
	for _, name := range m.order {
		if name == origin {
			continue
		}
		if _, ok := dist[name]; !ok {
			continue
		}
		if p, ok := m.pathFromTree(origin, name, dist, parent); ok {
			out[name] = p
		}
	}
	return out
}

func (m *Multigraph) pathFromTree(origin, target string, dist map[string]float64, parent map[string]MGHop) (MGPath, bool) {
	var rev []MGHop
	for at := target; at != origin; {
		h, ok := parent[at]
		if !ok {
			return MGPath{}, false
		}
		rev = append(rev, h)
		at = h.From
	}
	hops := make([]MGHop, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		hops = append(hops, rev[i])
	}
	return MGPath{Hops: hops, Delay: dist[target]}, true
}
