package addr

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// naiveTable is the executable specification the trie is checked against:
// a flat prefix list with linear longest-match lookup.
type naiveTable struct {
	entries map[Prefix]int
}

func (n *naiveTable) insert(p Prefix, v int) bool {
	_, existed := n.entries[p]
	n.entries[p] = v
	return !existed
}

func (n *naiveTable) delete(p Prefix) bool {
	_, existed := n.entries[p]
	delete(n.entries, p)
	return existed
}

func (n *naiveTable) lookup(ip IPv4) (Prefix, int, bool) {
	best, bestV, found := Prefix{}, 0, false
	for p, v := range n.entries {
		if !p.Contains(ip) {
			continue
		}
		if !found || p.Len > best.Len {
			best, bestV, found = p, v, true
		}
	}
	return best, bestV, found
}

// sorted returns the model's prefixes in ComparePrefix order, which Walk
// must produce whatever history built the trie.
func (n *naiveTable) sorted() []Prefix {
	out := make([]Prefix, 0, len(n.entries))
	for p := range n.entries {
		out = append(out, p)
	}
	slices.SortFunc(out, ComparePrefix)
	return out
}

// checkInvariants walks the node slice itself: every child's prefix extends
// its parent's and hangs off the branch its own bits name, no node but the
// root is unset with fewer than two children, a /32 is a leaf, every node is
// either reachable or on the free list, and the live ones number at most
// 2·Len() (1 for the root of an empty table). Each set node names a value
// slot of its own, the slots on the value free list hold the zero value, and
// together they are every slot of vals.
func checkInvariants[V comparable](t testing.TB, tb *Table[V]) {
	t.Helper()
	var zero V
	owner := make([]int, len(tb.vals)) // 1 + the set node naming each slot, or -1 if free
	live, set := 0, 0
	var visit func(i uint32)
	visit = func(i uint32) {
		n := tb.nodes[i]
		live++
		if n.set() {
			set++
			if v := n.val(); int(v) >= len(owner) || owner[v] != 0 {
				t.Fatalf("node %d names value slot %d of %d, or a slot another node names", i, v, len(owner))
			} else {
				owner[v] = int(i) + 1
			}
		}
		if n.len() > 32 || n.addr&^mask(n.len()) != 0 {
			t.Fatalf("node %d is %08x/%d", i, n.addr, n.len())
		}
		kids := 0
		for b, c := range n.child {
			if c == 0 {
				continue
			}
			kids++
			k := tb.nodes[c]
			if k.len() <= n.len() || !n.covers(k.addr) || n.branch(k.addr) != uint32(b) {
				t.Fatalf("node %d (%08x/%d) has %08x/%d on branch %d", i, n.addr, n.len(), k.addr, k.len(), b)
			}
			visit(c)
		}
		if i != 0 && !n.set() && kids < 2 {
			t.Fatalf("unset node %d (%08x/%d) has %d children", i, n.addr, n.len(), kids)
		}
	}
	visit(0)
	free := 0
	for i := tb.free; i != 0; i = tb.nodes[i].child[0] {
		if free++; free > len(tb.nodes) {
			t.Fatal("free list loops")
		}
		if tb.nodes[i].set() {
			t.Fatalf("free node %d is set", i)
		}
	}
	if live+free != len(tb.nodes) {
		t.Fatalf("%d live + %d free nodes, slice holds %d", live, free, len(tb.nodes))
	}
	for _, v := range tb.vfree {
		if int(v) >= len(owner) || owner[v] != 0 {
			t.Fatalf("free value slot %d of %d is named by a node or freed twice", v, len(owner))
		}
		owner[v] = -1
		if tb.vals[v] != zero {
			t.Fatalf("free value slot %d keeps %v", v, tb.vals[v])
		}
	}
	for v, o := range owner {
		if o == 0 {
			t.Fatalf("value slot %d is neither named nor free", v)
		}
	}
	if set != tb.Len() {
		t.Fatalf("%d set nodes, Len %d", set, tb.Len())
	}
	if live > max(1, 2*tb.Len()) {
		t.Fatalf("%d live nodes for %d prefixes", live, tb.Len())
	}
}

// modelRun drives a trie and the naive model through the same operations
// and compares every observable, then the structure, after each one.
type modelRun struct {
	t     testing.TB
	trie  *Table[int]
	model naiveTable
	ops   int // operations so far, for the failure message
}

func (m *modelRun) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("op %d: "+format, append([]any{m.ops}, args...)...)
}

func newModelRun(t testing.TB) *modelRun {
	return &modelRun{t: t, trie: NewTable[int](), model: naiveTable{entries: map[Prefix]int{}}}
}

// The operations take the prefix as a caller might hand it over, host bits
// and all; the model sees it normalised.
func (m *modelRun) insert(p Prefix, v int) {
	m.t.Helper()
	m.ops++
	if got, want := m.trie.Insert(p, v), m.model.insert(NewPrefix(p.Addr, p.Len), v); got != want {
		m.fatalf("Insert(%v) = %v, want %v", p, got, want)
	}
	m.check()
}

func (m *modelRun) delete(p Prefix) {
	m.t.Helper()
	m.ops++
	if got, want := m.trie.Delete(p), m.model.delete(NewPrefix(p.Addr, p.Len)); got != want {
		m.fatalf("Delete(%v) = %v, want %v", p, got, want)
	}
	m.check()
}

func (m *modelRun) exact(p Prefix) {
	m.t.Helper()
	m.ops++
	gotV, gotOK := m.trie.Exact(p)
	wantV, wantOK := m.model.entries[NewPrefix(p.Addr, p.Len)]
	if gotOK != wantOK || gotV != wantV {
		m.fatalf("Exact(%v) = %v,%v want %v,%v", p, gotV, gotOK, wantV, wantOK)
	}
}

func (m *modelRun) lookup(ip IPv4) {
	m.t.Helper()
	m.ops++
	wantP, wantV, wantOK := m.model.lookup(ip)
	if gotV, gotOK := m.trie.Lookup(ip); gotOK != wantOK || gotV != wantV {
		m.fatalf("Lookup(%v) = %v,%v want %v,%v", ip, gotV, gotOK, wantV, wantOK)
	}
	if gp, gv, gok := m.trie.LookupPrefix(ip); gok != wantOK || gp != wantP || gv != wantV {
		m.fatalf("LookupPrefix(%v) = %v,%v,%v want %v,%v,%v", ip, gp, gv, gok, wantP, wantV, wantOK)
	}
}

// check compares Len, Walk (order and values) and Prefixes with the model,
// then the node slice with its invariants.
func (m *modelRun) check() {
	m.t.Helper()
	if m.trie.Len() != len(m.model.entries) {
		m.fatalf("Len = %d, model %d", m.trie.Len(), len(m.model.entries))
	}
	want := m.model.sorted()
	var got []Prefix
	m.trie.Walk(func(p Prefix, v int) bool {
		if v != m.model.entries[p] {
			m.fatalf("Walk value for %v = %d, want %d", p, v, m.model.entries[p])
		}
		got = append(got, p)
		return true
	})
	if !slices.Equal(got, want) {
		m.fatalf("Walk visited %v, want %v", got, want)
	}
	if ps := m.trie.Prefixes(); !slices.Equal(ps, want) {
		m.fatalf("Prefixes = %v, want %v", ps, want)
	}
	checkInvariants(m.t, m.trie)
}

// cornerPrefixes are the shapes each Insert and Delete case turns on: the
// default route, host routes, a nested chain, and siblings that part ways in
// their last bit.
var cornerPrefixes = []Prefix{
	MustParsePrefix("0.0.0.0/0"),
	MustParsePrefix("10.0.0.0/8"), MustParsePrefix("10.1.0.0/16"), MustParsePrefix("10.1.2.0/24"), MustParsePrefix("10.1.2.3/32"),
	MustParsePrefix("10.1.2.2/32"), MustParsePrefix("10.1.2.2/31"),
	MustParsePrefix("10.1.3.0/24"), MustParsePrefix("10.1.2.0/23"),
	MustParsePrefix("0.0.0.0/1"), MustParsePrefix("128.0.0.0/1"),
	MustParsePrefix("0.0.0.0/32"), MustParsePrefix("255.255.255.255/32"), MustParsePrefix("255.255.255.254/32"),
}

// randomPrefix draws half its prefixes from a deliberately small universe
// (few distinct address bits, all lengths) and half from cornerPrefixes, so
// inserts, deletes, and lookups collide often — the interesting trie paths
// are node splits, branch collapses, and value-bearing interior nodes. One
// in four comes back with host bits set, as Prefix{Addr: 10.1.2.3, Len: 8}.
func randomPrefix(rng *rand.Rand) Prefix {
	p := NewPrefix(IPv4(rng.Uint32()&0xF0F00000), uint8(rng.Intn(33))) // sparse bit pattern => collisions
	if rng.Intn(2) == 0 {
		p = cornerPrefixes[rng.Intn(len(cornerPrefixes))]
	}
	if rng.Intn(4) == 0 {
		p.Addr |= IPv4(rng.Uint32() &^ mask(p.Len))
	}
	return p
}

// TestTableMatchesNaiveModel drives the trie and the naive model through
// the same random operation stream and checks every observable after each
// step: insert/delete return values, Len, Exact, Walk's order, the node
// invariants, and longest-prefix Lookup/LookupPrefix for addresses biased
// to land inside stored prefixes.
func TestTableMatchesNaiveModel(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		t.Logf("seed %d", seed)
		rng := rand.New(rand.NewSource(seed))
		m := newModelRun(t)
		for m.ops < 4000 {
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // insert, or replace in place
				m.insert(randomPrefix(rng), rng.Intn(1000))
			case 4, 5: // delete a stored prefix when possible
				p := randomPrefix(rng)
				if ps := m.trie.Prefixes(); len(ps) > 0 && rng.Intn(4) != 0 {
					p = ps[rng.Intn(len(ps))]
				}
				m.delete(p)
			case 6:
				m.exact(randomPrefix(rng))
			default: // longest-prefix lookup
				ip := IPv4(rng.Uint32() & 0xF0F0FFFF)
				if ps := m.trie.Prefixes(); len(ps) > 0 && rng.Intn(3) != 0 {
					base := ps[rng.Intn(len(ps))]
					ip = base.Addr | (IPv4(rng.Uint32()) & ^IPv4(0) >> base.Len >> 1)
				}
				m.lookup(ip)
			}
		}
	}
}

// FuzzTableOps is the same comparison over an operation stream the fuzzer
// writes: six bytes an operation — what to do, a prefix length, an address.
func FuzzTableOps(f *testing.F) {
	op := func(kind, length byte, ip string) []byte {
		return binary.BigEndian.AppendUint32([]byte{kind, length}, uint32(MustParseIPv4(ip)))
	}
	f.Add(slices.Concat(op(0, 8, "10.0.0.0"), op(0, 16, "10.1.0.0"), op(0, 24, "10.1.2.0"), op(0, 32, "10.1.2.3"),
		op(3, 0, "10.1.2.3"), op(1, 16, "10.1.0.0"), op(1, 8, "10.0.0.0"), op(3, 0, "10.1.9.9")))
	f.Add(slices.Concat(op(0, 32, "10.1.2.2"), op(0, 32, "10.1.2.3"), op(0, 0, "0.0.0.0"), op(1, 32, "10.1.2.2"),
		op(0, 8, "10.1.2.3"), op(2, 8, "10.9.9.9"), op(1, 0, "1.2.3.4"), op(3, 0, "10.1.2.3")))
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newModelRun(t)
		for ; len(ops) >= 6; ops = ops[6:] {
			p := Prefix{Addr: IPv4(binary.BigEndian.Uint32(ops[2:])), Len: ops[1] % 33}
			switch ops[0] % 4 {
			case 0:
				m.insert(p, int(ops[0]))
			case 1:
				m.delete(p)
			case 2:
				m.exact(p)
			case 3:
				m.lookup(p.Addr)
			}
		}
	})
}

// TestWalkOrderIsHistoryFree: the checkpoint byte order of a table is its
// Walk order (TableState), so two tables holding the same prefixes must walk
// identically however they got there — built in order, built backwards
// through detours that were deleted again, or shuffled with every prefix
// deleted and re-inserted along the way — and that order is a sort by
// (address, length).
func TestWalkOrderIsHistoryFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	set := map[Prefix]bool{}
	for len(set) < 300 {
		p := randomPrefix(rng)
		set[NewPrefix(p.Addr, p.Len)] = true
	}
	var want []Prefix
	for p := range set {
		want = append(want, p)
	}
	slices.SortFunc(want, ComparePrefix)

	for _, h := range []struct {
		name  string
		build func(tb *Table[int])
	}{
		{"in order", func(tb *Table[int]) {
			for _, p := range want {
				tb.Insert(p, 0)
			}
		}},
		{"backwards, with detours", func(tb *Table[int]) {
			var detours []Prefix
			for i := len(want) - 1; i >= 0; i-- {
				tb.Insert(want[i], 0)
				if d := randomPrefix(rng); !set[NewPrefix(d.Addr, d.Len)] {
					tb.Insert(d, 1)
					detours = append(detours, d)
				}
			}
			for _, d := range detours {
				tb.Delete(d)
			}
		}},
		{"shuffled, deleted and re-inserted", func(tb *Table[int]) {
			ps := slices.Clone(want)
			rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
			for i, p := range ps {
				tb.Insert(p, 0)
				tb.Delete(ps[rng.Intn(i+1)])
			}
			for _, p := range ps {
				tb.Insert(p, 0)
			}
		}},
	} {
		tb := NewTable[int]()
		h.build(tb)
		checkInvariants(t, tb)
		if got := tb.Prefixes(); !slices.Equal(got, want) {
			t.Errorf("%s: Walk order differs from the sorted set\n got %v\nwant %v", h.name, got, want)
		}
	}
}

// TestTableDeleteCollapses fills and fully drains the trie several times:
// after each full drain every lookup must miss and Len must be zero, so
// delete really unlinks structure instead of leaving value-less husks
// that would shadow later inserts.
func TestTableDeleteCollapses(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trie := NewTable[int]()
	for round := 0; round < 20; round++ {
		inserted := map[Prefix]bool{}
		for i := 0; i < 100; i++ {
			p := randomPrefix(rng)
			trie.Insert(p, i)
			inserted[NewPrefix(p.Addr, p.Len)] = true
		}
		for p := range inserted {
			if !trie.Delete(p) {
				t.Fatalf("round %d: Delete(%v) missed a stored prefix", round, p)
			}
		}
		if trie.Len() != 0 {
			t.Fatalf("round %d: Len = %d after full drain", round, trie.Len())
		}
		if _, ok := trie.Lookup(IPv4(rng.Uint32())); ok {
			t.Fatalf("round %d: lookup hit in a drained table", round)
		}
	}
}

// TestTableChurnDoesNotGrow: the VRF, FTN and IP tables of a running
// backbone delete and re-insert on every reconvergence, so a table's storage
// must follow what it holds, not what it has ever held. A thousand rounds
// of insert-100/delete-100 leave the slices at the capacity the first round
// grew them to, the drained table is the root alone with every other node
// on the free list, and it answers every lookup with a miss.
func TestTableChurnDoesNotGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tb := NewTable[int]()
	nodesCap, valsCap := 0, 0
	for round := 0; round < 1000; round++ {
		ps := make([]Prefix, 100)
		for i := range ps {
			ps[i] = NewPrefix(IPv4(rng.Uint32()), uint8(8+rng.Intn(25)))
			tb.Insert(ps[i], i)
		}
		if len(tb.nodes) > 1+2*len(ps) {
			t.Fatalf("round %d: %d nodes for %d prefixes", round, len(tb.nodes), len(ps))
		}
		for _, p := range ps {
			tb.Delete(p)
		}
		if round == 0 {
			nodesCap, valsCap = cap(tb.nodes), cap(tb.vals)
		}
		if cap(tb.nodes) != nodesCap || cap(tb.vals) != valsCap {
			t.Fatalf("round %d: capacity %d nodes, %d values; round 0 left %d, %d", round, cap(tb.nodes), cap(tb.vals), nodesCap, valsCap)
		}
		if tb.Len() != 0 {
			t.Fatalf("round %d: Len = %d after the drain", round, tb.Len())
		}
		for _, p := range ps {
			if _, ok := tb.Lookup(p.Addr); ok {
				t.Fatalf("round %d: drained table matches %v", round, p.Addr)
			}
		}
	}
	checkInvariants(t, tb)
}

// TestTableGrowMakesRoomOnce: Grow(n) reserves what n more prefixes can take,
// so the inserts that follow never reallocate — also when the table is
// drained and refilled round after round, as a VRF's re-import is.
func TestTableGrowMakesRoomOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tb := NewTable[int]()
	tb.Insert(NewPrefix(IPv4(0x0a000000), 8), -1)
	for round := 0; round < 3; round++ {
		ps := make([]Prefix, 100)
		for i := range ps {
			ps[i] = NewPrefix(IPv4(rng.Uint32()), uint8(8+rng.Intn(25)))
		}
		tb.Grow(len(ps))
		nodes, vals := cap(tb.nodes), cap(tb.vals)
		for i, p := range ps {
			tb.Insert(p, i)
		}
		if cap(tb.nodes) != nodes || cap(tb.vals) != vals {
			t.Fatalf("round %d: %d inserts grew the table from %d/%d to %d/%d", round, len(ps), nodes, vals, cap(tb.nodes), cap(tb.vals))
		}
		for _, p := range ps {
			tb.Delete(p)
		}
	}
	checkInvariants(t, tb)
}
