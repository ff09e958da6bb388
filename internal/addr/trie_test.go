package addr

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTableBasic(t *testing.T) {
	tb := NewTable[string]()
	tb.Insert(MustParsePrefix("10.0.0.0/8"), "ten")
	tb.Insert(MustParsePrefix("10.1.0.0/16"), "ten-one")
	tb.Insert(MustParsePrefix("0.0.0.0/0"), "default")

	cases := []struct {
		ip   string
		want string
	}{
		{"10.1.2.3", "ten-one"},
		{"10.2.0.1", "ten"},
		{"11.0.0.1", "default"},
	}
	for _, c := range cases {
		got, ok := tb.Lookup(MustParseIPv4(c.ip))
		if !ok || got != c.want {
			t.Errorf("Lookup(%s) = %q/%v, want %q", c.ip, got, ok, c.want)
		}
	}
}

func TestTableNoMatch(t *testing.T) {
	tb := NewTable[int]()
	tb.Insert(MustParsePrefix("10.0.0.0/8"), 1)
	if _, ok := tb.Lookup(MustParseIPv4("11.0.0.1")); ok {
		t.Fatal("lookup matched with no covering prefix")
	}
}

func TestTableReplaceAndDelete(t *testing.T) {
	tb := NewTable[int]()
	p := MustParsePrefix("10.0.0.0/8")
	if !tb.Insert(p, 1) {
		t.Fatal("first insert should report added")
	}
	if tb.Insert(p, 2) {
		t.Fatal("second insert should report replaced")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
	v, ok := tb.Exact(p)
	if !ok || v != 2 {
		t.Fatalf("Exact = %v/%v, want 2", v, ok)
	}
	if !tb.Delete(p) {
		t.Fatal("delete of present prefix returned false")
	}
	if tb.Delete(p) {
		t.Fatal("delete of absent prefix returned true")
	}
	if _, ok := tb.Lookup(MustParseIPv4("10.0.0.1")); ok {
		t.Fatal("deleted prefix still matches")
	}
}

func TestTableHostRoutes(t *testing.T) {
	tb := NewTable[int]()
	ip := MustParseIPv4("192.168.1.1")
	tb.Insert(HostPrefix(ip), 42)
	tb.Insert(MustParsePrefix("192.168.1.0/24"), 24)
	v, ok := tb.Lookup(ip)
	if !ok || v != 42 {
		t.Fatalf("host route not preferred: got %v", v)
	}
	v, ok = tb.Lookup(MustParseIPv4("192.168.1.2"))
	if !ok || v != 24 {
		t.Fatalf("covering /24 not matched: got %v", v)
	}
}

func TestTableLookupPrefix(t *testing.T) {
	tb := NewTable[string]()
	tb.Insert(MustParsePrefix("10.0.0.0/8"), "a")
	tb.Insert(MustParsePrefix("10.1.0.0/16"), "b")
	p, v, ok := tb.LookupPrefix(MustParseIPv4("10.1.2.3"))
	if !ok || v != "b" || p != MustParsePrefix("10.1.0.0/16") {
		t.Fatalf("LookupPrefix = %v %q %v", p, v, ok)
	}
	p, v, ok = tb.LookupPrefix(MustParseIPv4("10.9.0.1"))
	if !ok || v != "a" || p != MustParsePrefix("10.0.0.0/8") {
		t.Fatalf("LookupPrefix = %v %q %v", p, v, ok)
	}
}

func TestTableWalk(t *testing.T) {
	tb := NewTable[int]()
	ps := []string{"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/24", "255.255.255.255/32"}
	for i, s := range ps {
		tb.Insert(MustParsePrefix(s), i)
	}
	seen := map[Prefix]int{}
	tb.Walk(func(p Prefix, v int) bool {
		seen[p] = v
		return true
	})
	if len(seen) != len(ps) {
		t.Fatalf("walk visited %d prefixes, want %d", len(seen), len(ps))
	}
	for i, s := range ps {
		if seen[MustParsePrefix(s)] != i {
			t.Errorf("walk value for %s = %d, want %d", s, seen[MustParsePrefix(s)], i)
		}
	}
	// Early stop.
	count := 0
	tb.Walk(func(Prefix, int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("walk did not stop early: %d", count)
	}
}

// linearTable is a reference LPM implementation for the equivalence property.
type linearTable struct {
	prefixes []Prefix
	values   []int
}

func (l *linearTable) lookup(ip IPv4) (int, bool) {
	best := -1
	bestLen := -1
	for i, p := range l.prefixes {
		if p.Contains(ip) && int(p.Len) > bestLen {
			best, bestLen = i, int(p.Len)
		}
	}
	if best < 0 {
		return 0, false
	}
	return l.values[best], true
}

// Property: the radix trie agrees with a brute-force longest-prefix scan for
// random prefix sets and random lookups.
func TestTableMatchesLinearScan(t *testing.T) {
	f := func(seeds []uint32, probes []uint32) bool {
		tb := NewTable[int]()
		lin := &linearTable{}
		for i, s := range seeds {
			length := uint8(s % 33)
			p := NewPrefix(IPv4(s*2654435761), length)
			// Keep values consistent on duplicate prefixes.
			if _, exists := tb.Exact(p); exists {
				continue
			}
			tb.Insert(p, i)
			lin.prefixes = append(lin.prefixes, p)
			lin.values = append(lin.values, i)
		}
		for _, q := range probes {
			ip := IPv4(q)
			gv, gok := tb.Lookup(ip)
			wv, wok := lin.lookup(ip)
			if gok != wok || (gok && gv != wv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTablePrefixesCount(t *testing.T) {
	tb := NewTable[int]()
	for i := 0; i < 100; i++ {
		tb.Insert(NewPrefix(IPv4(uint32(i)<<24), 8), i)
	}
	if got := len(tb.Prefixes()); got != 100 {
		t.Fatalf("Prefixes returned %d entries, want 100", got)
	}
}

// TestTableLookupZeroAlloc: the three read paths of a table with VRF-sized
// values allocate nothing.
func TestTableLookupZeroAlloc(t *testing.T) {
	tb := NewTable[route]()
	for _, p := range vrfRoutes(rand.New(rand.NewSource(1)), 20) {
		tb.Insert(p, route{prefix: p, site: "s"})
	}
	p := tb.Prefixes()[7]
	ip := p.Addr | 9
	for name, read := range map[string]func(){
		"Lookup":       func() { sinkRoute, _ = tb.Lookup(ip) },
		"LookupPrefix": func() { _, sinkRoute, _ = tb.LookupPrefix(ip) },
		"Exact":        func() { sinkRoute, _ = tb.Exact(p) },
	} {
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("%s allocates %v times", name, n)
		}
	}
}

// TestTableFootprint: what a table costs to build and to keep. A VRF of 20
// site /24s is built in at most 8 allocations and keeps at most 64 bytes of
// node storage per route beside the values; 100k random prefixes are built
// in at most 100 allocations, not one per prefix bit.
func TestTableFootprint(t *testing.T) {
	if s := unsafe.Sizeof(node{}); s != 16 {
		t.Errorf("a node is %d bytes, want 16", s)
	}
	build := func(ps []Prefix) *Table[route] {
		tb := NewTable[route]()
		for _, p := range ps {
			tb.Insert(p, route{prefix: p})
		}
		return tb
	}
	vrf := vrfRoutes(rand.New(rand.NewSource(1)), 20)
	if n := testing.AllocsPerRun(10, func() { build(vrf) }); n > 8 {
		t.Errorf("building a 20-route VRF allocates %v times, want at most 8", n)
	}
	tb := build(vrf)
	if per := cap(tb.nodes) * int(unsafe.Sizeof(node{})) / tb.Len(); per > 64 {
		t.Errorf("a 20-route VRF keeps %d bytes of nodes per route, want at most 64", per)
	}
	big := randRoutes(rand.New(rand.NewSource(2)), 100_000)
	if n := testing.AllocsPerRun(1, func() { build(big) }); n > 100 {
		t.Errorf("building 100k random prefixes allocates %v times, want at most 100", n)
	}
}
