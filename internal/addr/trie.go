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
// the final hit. There are at most 2·Len() live nodes (1 when empty), and a
// value for each set one alone; Delete returns nodes and value slots to free
// lists that Insert draws from before the slices grow.
//
// The value type is generic so VRFs, global tables, and IGP tables can all
// reuse it.
type Table[V any] struct {
	nodes []node
	vals  []V      // one per set node, which names it; the rest are vfree's
	vfree []uint32 // value slots a Delete left, zeroed, for the next set
	free  uint32   // head of the free node list, chained through child[0]; 0 = empty
}

type node struct {
	child [2]uint32 // 0 = none: the root is nobody's child
	addr  uint32    // host bits zero
	tag
}

// A tag is a node's prefix length in its low 8 bits and, above them, 1 +
// the index of its value in vals for a set node, 0 for an unset one.
type tag uint32

// MaxValues is the most prefixes a table holds at once: a node names its
// value in the 24 bits its tag keeps beside the length.
const MaxValues = 1<<24 - 1

func (g tag) len() uint8  { return uint8(g) }
func (g tag) set() bool   { return g > 0xff }
func (g tag) val() uint32 { return uint32(g>>8) - 1 }

// setVal marks n set, holding the value in vals[v].
func (n *node) setVal(v uint32) { n.tag = tag(n.len()) | tag(v+1)<<8 }

// covers reports whether u lies inside n's prefix. Both shifts below are 64
// bits wide with a masked count, which compiles to the bare instruction: a
// /0 shifts every bit out here, and a /32 asks branch for bit 63, which is 0,
// a slot a /32 never fills. The count is taken from the whole tag, whose
// value bits are a multiple of 256 and vanish under the mask: that keeps
// match within the inliner's budget.
func (n *node) covers(u uint32) bool { return uint64(u^n.addr)>>((32-uint32(n.tag))&63) == 0 }

// branch is the child slot of n that u, which n covers, continues into.
func (n *node) branch(u uint32) uint32 { return uint32(uint64(u) >> ((31 - uint32(n.tag)) & 63) & 1) }

// A new table has room for tableCap nodes, which is all a CE's tables ever
// need, and for values from its first set prefix on. Below smallTable
// entries a full slice quadruples, so that a VRF's few dozen nodes and
// values arrive in three allocations each and not six; from there on append
// decides.
const (
	tableCap   = 4
	smallTable = 64
)

// NewTable returns an empty table.
func NewTable[V any]() *Table[V] { return newTable[V](0) }

// newTable returns an empty table with room for the given number of
// prefixes: a table of n prefixes has at most 2n nodes (tableCap at least),
// and has about that many when few of the prefixes lie inside one another.
func newTable[V any](prefixes int) *Table[V] {
	return &Table[V]{nodes: make([]node, 1, max(2*prefixes, tableCap)), vals: make([]V, 0, prefixes)}
}

// Grow makes room for n more prefixes, so that inserting them does not
// reallocate: a table that knows what it is about to hold (a VRF importing
// its routes) is sized once instead of growing through the small-table
// steps and leaving each step behind as garbage.
func (t *Table[V]) Grow(n int) {
	size := t.Len()
	if need := 2*(size+n) + 1; need > cap(t.nodes) {
		t.nodes = append(make([]node, 0, need), t.nodes...)
	}
	if need := size + n; need > cap(t.vals) {
		t.vals = append(make([]V, 0, need), t.vals...)
	}
}

// Len returns the number of installed prefixes.
func (t *Table[V]) Len() int { return len(t.vals) - len(t.vfree) }

// room returns s, or s copied into a slice four times its capacity when s is
// full and smaller than smallTable.
func room[T any](s []T) []T {
	if c := cap(s); c == len(s) && c < smallTable {
		return append(make([]T, 0, max(4*c, tableCap)), s...)
	}
	return s
}

// alloc returns the index of an unlinked node holding n.
func (t *Table[V]) alloc(n node) uint32 {
	i := t.free
	if i == 0 {
		t.nodes = append(room(t.nodes), n)
		return uint32(len(t.nodes) - 1)
	}
	t.free = t.nodes[i].child[0]
	t.nodes[i] = n
	return i
}

// value returns the index of a zero value slot for a prefix being set: one
// a Delete freed, or else a new one. It panics past MaxValues.
func (t *Table[V]) value() uint32 {
	if k := len(t.vfree); k > 0 {
		v := t.vfree[k-1]
		t.vfree = t.vfree[:k-1]
		return v
	}
	if len(t.vals) == MaxValues {
		panic("addr: a table holds at most MaxValues prefixes")
	}
	var zero V
	t.vals = append(room(t.vals), zero)
	return uint32(len(t.vals) - 1)
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
		common = min(uint8(bits.LeadingZeros32(a^n.addr)), p.Len, n.len())
		if common < n.len() {
			break
		}
		if n.len() == p.Len {
			if !n.set() {
				t.nodes[i].setVal(t.value())
			}
			return &t.vals[t.nodes[i].val()], !n.set()
		}
		up, b = i, n.branch(a)
		if i = n.child[b]; i == 0 {
			break
		}
	}
	// p gets a new node, linked into that slot. alloc may move t.nodes.
	leaf := node{addr: a, tag: tag(p.Len)}
	leaf.setVal(t.value())
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
		fork := node{addr: a &^ (^uint32(0) >> common), tag: tag(common)}
		fork.child[fork.branch(a)], fork.child[fork.branch(n.addr)] = at, i
		link = t.alloc(fork)
	}
	t.nodes[up].child[b] = link
	return &t.vals[leaf.val()], true
}

// find descends to the node for exactly prefix p (normalised), returning its
// index, its parent's (up) and its grandparent's (upup); ok is false when no
// such node exists.
func (t *Table[V]) find(p Prefix) (i, up, upup uint32, ok bool) {
	a := uint32(p.Addr)
	for {
		n := t.nodes[i]
		if n.len() > p.Len || !n.covers(a) {
			return 0, 0, 0, false
		}
		if n.len() == p.Len {
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

// Delete removes prefix p. It reports whether the prefix was present. Its
// value slot, and the nodes p alone kept alive (its own, and a fork left
// with one branch), are freed and reused by later inserts.
func (t *Table[V]) Delete(p Prefix) bool {
	i, up, upup, ok := t.find(NewPrefix(p.Addr, p.Len))
	if !ok || !t.nodes[i].set() {
		return false
	}
	n := t.nodes[i]
	var zero V
	t.vals[n.val()] = zero
	t.vfree = append(t.vfree, n.val())
	t.nodes[i].tag = tag(n.len())
	if i == 0 || (n.child[0] != 0 && n.child[1] != 0) {
		return true // the root stays; so does a node that is still a fork
	}
	t.unlink(i, up)
	if f := t.nodes[up]; up != 0 && !f.set() && (f.child[0] == 0 || f.child[1] == 0) {
		t.unlink(up, upup)
	}
	return true
}

// Exact returns the value installed for exactly prefix p.
func (t *Table[V]) Exact(p Prefix) (V, bool) {
	if i, _, _, ok := t.find(NewPrefix(p.Addr, p.Len)); ok && t.nodes[i].set() {
		return t.vals[t.nodes[i].val()], true
	}
	var zero V
	return zero, false
}

// match returns the tag of the longest installed prefix covering u, an
// unset one when there is none: the tag the descent has already loaded
// names the value, so no node is read again. It reads nodes in place: the
// fields of one node share a cache line, and a copy would go through the
// stack.
func match(nodes []node, u uint32) tag {
	var best tag
	for i := uint32(0); ; {
		n := &nodes[i]
		if !n.covers(u) {
			break
		}
		if n.set() {
			best = n.tag
		}
		if i = n.child[n.branch(u)]; i == 0 {
			break
		}
	}
	return best
}

// Lookup performs longest-prefix match for ip. The boolean is false when no
// installed prefix covers the address.
func (t *Table[V]) Lookup(ip IPv4) (V, bool) {
	if g := match(t.nodes, uint32(ip)); g.set() {
		return t.vals[g.val()], true
	}
	var zero V
	return zero, false
}

// LookupPrefix performs longest-prefix match and also returns the matched
// prefix, which covers ip; used where the FEC (the prefix itself) matters,
// such as at an MPLS ingress.
func (t *Table[V]) LookupPrefix(ip IPv4) (Prefix, V, bool) {
	if g := match(t.nodes, uint32(ip)); g.set() {
		return NewPrefix(ip, g.len()), t.vals[g.val()], true
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
	if n.set() && !fn(Prefix{Addr: IPv4(n.addr), Len: n.len()}, t.vals[n.val()]) {
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
		if n := &t.nodes[i]; n.set() {
			fn(&t.vals[n.val()])
		}
	}
}

// Prefixes returns all installed prefixes.
func (t *Table[V]) Prefixes() []Prefix {
	out := make([]Prefix, 0, t.Len())
	t.Walk(func(p Prefix, _ V) bool {
		out = append(out, p)
		return true
	})
	return out
}
