package addr

import "math/bits"

// Table is a longest-prefix-match routing table: a path-compressed binary
// trie whose nodes live in one slice and link by index. It is the lookup
// structure behind every IP forwarding decision in the simulator, and also
// the subject of experiment E4, which compares its per-packet cost with an
// MPLS label-index lookup.
//
// A node stands for one prefix. It exists because the prefix is installed
// (set), or because two installed prefixes part ways below it (a glue node:
// unset, exactly two children); the root is the /0 prefix and always
// exists. A child's prefix extends its parent's and hangs off the branch
// named by its own bit at the parent's length; bits nobody branches on have
// no node, so a lookup takes a step per fork or installed prefix on its way,
// not per bit, and the shape is a function of the set of installed prefixes
// alone — which makes Walk's order one too (DESIGN.md §11).
//
// Nodes carry no pointers and no values: a lookup reads 16-byte nodes, four
// to a cache line, that the collector never scans, and touches vals once, on
// the final hit. There are at most 2·Len() live nodes (1 when empty); Delete
// returns nodes to a free list that Insert draws from before the slices grow.
//
// The value type is generic so VRFs, global tables, and IGP tables can all
// reuse it.
type Table[V any] struct {
	nodes []node
	vals  []V    // vals[i] is meaningful while nodes[i].set
	free  uint32 // head of the free list, chained through child[0]; 0 = empty
	size  int
}

type node struct {
	child [2]uint32 // 0 = none: the root is nobody's child
	addr  uint32    // host bits zero
	len   uint8
	set   bool
}

// covers reports whether u lies inside n's prefix. Both shifts below are 64
// bits wide with a masked count, which compiles to the bare instruction: a
// /0 shifts every bit out here, and a /32 asks branch for bit 63, which is 0,
// a slot a /32 never fills.
func (n *node) covers(u uint32) bool { return uint64(u^n.addr)>>((32-n.len)&63) == 0 }

// branch is the child slot of n that u, which n covers, continues into.
func (n *node) branch(u uint32) uint32 { return uint32(uint64(u) >> ((31 - n.len) & 63) & 1) }

// A new table has room for tableCap nodes, which is all a CE's tables ever
// need. Below smallTable nodes a full table quadruples, so that a VRF's few
// dozen nodes arrive in three allocations and not six; from there on append
// decides.
const (
	tableCap   = 4
	smallTable = 64
)

// NewTable returns an empty table.
func NewTable[V any]() *Table[V] { return newTable[V](tableCap) }

// newTable returns an empty table with room for the given number of nodes,
// tableCap at least. A table of n prefixes has at most 2n nodes, and has
// about that many when few of the prefixes lie inside one another.
func newTable[V any](nodes int) *Table[V] {
	nodes = max(nodes, tableCap)
	return &Table[V]{nodes: make([]node, 1, nodes), vals: make([]V, 1, nodes)}
}

// Grow makes room for n more prefixes, so that inserting them does not
// reallocate: a table that knows what it is about to hold (a VRF importing
// its routes) is sized once instead of growing through the small-table
// steps and leaving each step behind as garbage.
func (t *Table[V]) Grow(n int) {
	if need := 2*(t.size+n) + 1; need > cap(t.nodes) {
		t.nodes = append(make([]node, 0, need), t.nodes...)
		t.vals = append(make([]V, 0, need), t.vals...)
	}
}

// Len returns the number of installed prefixes.
func (t *Table[V]) Len() int { return t.size }

// alloc returns the index of an unlinked node holding n.
func (t *Table[V]) alloc(n node) uint32 {
	i := t.free
	if i == 0 {
		if c := cap(t.nodes); c == len(t.nodes) && c < smallTable {
			t.nodes = append(make([]node, 0, 4*c), t.nodes...)
			t.vals = append(make([]V, 0, 4*c), t.vals...)
		}
		var zero V
		t.nodes, t.vals = append(t.nodes, n), append(t.vals, zero)
		return uint32(len(t.nodes) - 1)
	}
	t.free = t.nodes[i].child[0]
	t.nodes[i] = n
	return i
}

// Insert installs or replaces the value for prefix p. It reports whether the
// prefix was newly added (false means replaced).
func (t *Table[V]) Insert(p Prefix, v V) bool {
	cell, added := t.Upsert(p)
	*cell = v
	return added
}

// Upsert returns the cell holding prefix p's value, installing p with the
// zero value first when it is absent (added reports that): a read-modify-
// write of one entry in one descent. The pointer is good until the table
// next changes shape (Insert, Upsert, Delete, Grow).
func (t *Table[V]) Upsert(p Prefix) (cell *V, added bool) {
	p = NewPrefix(p.Addr, p.Len)
	a := uint32(p.Addr)
	// Descend while nodes are prefixes of p. The slot that holds i is
	// nodes[up].child[b]; common is how many leading bits p and n share.
	var n node
	var common uint8
	var i, up, b uint32
	for {
		n = t.nodes[i]
		common = min(uint8(bits.LeadingZeros32(a^n.addr)), p.Len, n.len)
		if common < n.len {
			break
		}
		if n.len == p.Len {
			if !n.set {
				var zero V
				t.nodes[i].set, t.vals[i] = true, zero
				t.size++
			}
			return &t.vals[i], !n.set
		}
		up, b = i, n.branch(a)
		if i = n.child[b]; i == 0 {
			break
		}
	}
	// p gets a new node, linked into that slot. alloc may move t.nodes.
	leaf := node{addr: a, len: p.Len, set: true}
	var at, link uint32
	switch {
	case i == 0: // extend: the slot was empty
		at = t.alloc(leaf)
		link = at
	case common == p.Len: // split above: p is a prefix of n and adopts it
		leaf.child[leaf.branch(n.addr)] = i
		at = t.alloc(leaf)
		link = at
	default: // glue: p and n part ways at bit common, under a new fork
		at = t.alloc(leaf)
		fork := node{addr: a &^ (^uint32(0) >> common), len: common}
		fork.child[fork.branch(a)], fork.child[fork.branch(n.addr)] = at, i
		link = t.alloc(fork)
	}
	var zero V
	t.nodes[up].child[b], t.vals[at] = link, zero
	t.size++
	return &t.vals[at], true
}

// find descends to the node for exactly prefix p (normalised), returning its
// index, its parent's (up) and its grandparent's (upup); ok is false when no
// such node exists.
func (t *Table[V]) find(p Prefix) (i, up, upup uint32, ok bool) {
	a := uint32(p.Addr)
	for {
		n := t.nodes[i]
		if n.len > p.Len || !n.covers(a) {
			return 0, 0, 0, false
		}
		if n.len == p.Len {
			return i, up, upup, true
		}
		up, upup = i, up
		if i = n.child[n.branch(a)]; i == 0 {
			return 0, 0, 0, false
		}
	}
}

// unlink takes node i, which has at most one child, out of the trie: its
// parent up adopts the child, and i goes on the free list.
func (t *Table[V]) unlink(i, up uint32) {
	n := t.nodes[i]
	t.nodes[up].child[t.nodes[up].branch(n.addr)] = n.child[0] | n.child[1]
	t.nodes[i] = node{child: [2]uint32{t.free}}
	t.free = i
}

// Delete removes prefix p. It reports whether the prefix was present. The
// nodes p alone kept alive (its own, and a fork left with one branch) are
// unlinked and reused by later inserts.
func (t *Table[V]) Delete(p Prefix) bool {
	i, up, upup, ok := t.find(NewPrefix(p.Addr, p.Len))
	if !ok || !t.nodes[i].set {
		return false
	}
	var zero V
	t.nodes[i].set, t.vals[i] = false, zero
	t.size--
	n := t.nodes[i]
	if i == 0 || (n.child[0] != 0 && n.child[1] != 0) {
		return true // the root stays; so does a node that is still a fork
	}
	t.unlink(i, up)
	if f := t.nodes[up]; up != 0 && !f.set && (f.child[0] == 0 || f.child[1] == 0) {
		t.unlink(up, upup)
	}
	return true
}

// Exact returns the value installed for exactly prefix p.
func (t *Table[V]) Exact(p Prefix) (V, bool) {
	if i, _, _, ok := t.find(NewPrefix(p.Addr, p.Len)); ok && t.nodes[i].set {
		return t.vals[i], true
	}
	var zero V
	return zero, false
}

// match returns the index of the longest installed prefix covering u, or
// false when there is none. It reads nodes in place: the fields of one node
// share a cache line, and a copy would go through the stack.
func match(nodes []node, u uint32) (uint32, bool) {
	const none = ^uint32(0)
	best := none
	for i := uint32(0); ; {
		n := &nodes[i]
		if !n.covers(u) {
			break
		}
		if n.set {
			best = i
		}
		if i = n.child[n.branch(u)]; i == 0 {
			break
		}
	}
	return best, best != none
}

// Lookup performs longest-prefix match for ip. The boolean is false when no
// installed prefix covers the address.
func (t *Table[V]) Lookup(ip IPv4) (V, bool) {
	if i, ok := match(t.nodes, uint32(ip)); ok {
		return t.vals[i], true
	}
	var zero V
	return zero, false
}

// LookupPrefix performs longest-prefix match and also returns the matched
// prefix; used where the FEC (the prefix itself) matters, such as at an
// MPLS ingress.
func (t *Table[V]) LookupPrefix(ip IPv4) (Prefix, V, bool) {
	if i, ok := match(t.nodes, uint32(ip)); ok {
		return Prefix{Addr: IPv4(t.nodes[i].addr), Len: t.nodes[i].len}, t.vals[i], true
	}
	var zero V
	return Prefix{}, zero, false
}

// Walk visits every installed prefix in lexicographic bit order: a prefix
// before the prefixes inside it, the 0-branch before the 1-branch — the
// order of a sort by (address, length), whatever sequence of inserts and
// deletes built the table. Returning false from fn stops the walk. fn must
// not modify the table.
func (t *Table[V]) Walk(fn func(Prefix, V) bool) { t.walk(0, fn) }

func (t *Table[V]) walk(i uint32, fn func(Prefix, V) bool) bool {
	n := t.nodes[i]
	if n.set && !fn(Prefix{Addr: IPv4(n.addr), Len: n.len}, t.vals[i]) {
		return false
	}
	for _, c := range n.child {
		if c != 0 && !t.walk(c, fn) {
			return false
		}
	}
	return true
}

// Values calls fn with the cell of every installed prefix's value, in node
// order: a pass that rewrites values in place (an arena compacting under
// the spans it holds) without a walk's recursion. fn must not modify the
// table's shape.
func (t *Table[V]) Values(fn func(*V)) {
	for i := range t.nodes {
		if t.nodes[i].set {
			fn(&t.vals[i])
		}
	}
}

// Prefixes returns all installed prefixes.
func (t *Table[V]) Prefixes() []Prefix {
	out := make([]Prefix, 0, t.size)
	t.Walk(func(p Prefix, _ V) bool {
		out = append(out, p)
		return true
	})
	return out
}
