package snapshot

import (
	"bytes"
	"fmt"
	"slices"
)

// Codec is one direction of a state walk. A type describes its checkpointed
// fields once, as a function of a *Codec that names each field in wire
// order; run over a Saver the walk appends those fields to a Writer, run
// over a Loader it reads them back from a Reader into the same places. The
// wire format is whatever Writer and Reader define — the Codec adds no
// framing of its own.
//
// Every leaf takes a pointer to the field, except U64 and I64, which
// exchange a value (for state reached through an accessor pair, such as a
// random stream's State/SetState). What only one direction does — allocating
// a packet from a pool, checking a count against the rebuilt scenario —
// stays explicit in the walk under Loading or Loaded.
//
// All of Reader's guarantees carry over: reads are bounds checked, counts
// are validated against the bytes that remain, and the first failure sticks,
// after which every read yields zero and every counted loop is empty. Fail
// adds scenario-level refusals (ErrMismatch, ErrCorrupt) to the same sticky
// slot, so a walk never returns an error: its caller checks Err once.
type Codec struct {
	w *Writer
	r *Reader
}

// Saver returns a Codec whose walks append to w.
func Saver(w *Writer) *Codec { return &Codec{w: w} }

// Loader returns a Codec whose walks read from r.
func Loader(r *Reader) *Codec { return &Codec{r: r} }

// Load runs walk over a Loader of r and returns the load's first failure.
func Load(r *Reader, walk func(*Codec)) error {
	c := Loader(r)
	walk(c)
	return c.Err()
}

// Grow tells a save it is about to write some n bytes, so that the Writer
// makes room for them once. A load ignores it.
func (c *Codec) Grow(n int) {
	if c.w != nil {
		c.w.Grow(n)
	}
}

// Loading reports whether walks read state in rather than write it out.
func (c *Codec) Loading() bool { return c.r != nil }

// Loaded reports a load that has not failed so far: the guard for acting on
// values just read (re-arming an event, resolving an ID against live state).
func (c *Codec) Loaded() bool { return c.r != nil && c.r.err == nil }

// Err returns the first failure of a load, or nil. Saving cannot fail.
func (c *Codec) Err() error {
	if c.r == nil {
		return nil
	}
	return c.r.err
}

// Fail records err as the load's failure unless one is already recorded.
func (c *Codec) Fail(err error) {
	if c.r != nil && c.r.err == nil {
		c.r.err = err
	}
}

// Mismatch fails the load with an ErrMismatch: the checkpoint decoded but
// describes a different scenario than the one rebuilt.
func (c *Codec) Mismatch(format string, args ...any) {
	c.Fail(fmt.Errorf("%w: %s", ErrMismatch, fmt.Sprintf(format, args...)))
}

// Corrupt fails the load with an ErrCorrupt: a value no Saver writes.
func (c *Codec) Corrupt(format string, args ...any) {
	c.Fail(fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...)))
}

// U64 exchanges an unsigned varint: it writes v and returns it when saving,
// and returns the decoded value when loading.
func (c *Codec) U64(v uint64) uint64 {
	if c.r != nil {
		return c.r.U64()
	}
	c.w.U64(v)
	return v
}

// I64 exchanges a zigzag varint, like U64.
func (c *Codec) I64(v int64) int64 {
	if c.r != nil {
		return c.r.I64()
	}
	c.w.I64(v)
	return v
}

// Uint walks an unsigned field of any width as a varint. A loaded value
// wider than the field is truncated, as a conversion would.
func Uint[T ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64](c *Codec, p *T) {
	*p = T(c.U64(uint64(*p)))
}

// Int walks a signed field of any width as a zigzag varint.
func Int[T ~int | ~int8 | ~int16 | ~int32 | ~int64](c *Codec, p *T) {
	*p = T(c.I64(int64(*p)))
}

// F64 walks a float64 as its fixed 8-byte bit pattern.
func (c *Codec) F64(p *float64) {
	if c.r != nil {
		*p = c.r.F64()
	} else {
		c.w.F64(*p)
	}
}

// Bool walks a bool as one 0/1 byte.
func (c *Codec) Bool(p *bool) {
	if c.r != nil {
		*p = c.r.Bool()
	} else {
		c.w.Bool(*p)
	}
}

// Str walks a length-prefixed string.
func (c *Codec) Str(p *string) {
	if c.r != nil {
		*p = c.r.Str()
	} else {
		c.w.Str(*p)
	}
}

// Has walks the presence flag of optional state: it writes present when
// saving and returns what the checkpoint recorded when loading, so the
// caller walks the optional part exactly when Has returns true (allocating
// it first on a load).
func (c *Codec) Has(present bool) bool {
	c.Bool(&present)
	return present
}

// Same walks the presence flag of state whose existence is scenario
// configuration (a shaper, a classifier, the LDP instance): a checkpoint
// that disagrees with the rebuilt scenario is an ErrMismatch naming what.
// It returns whether the caller should walk that state.
func (c *Codec) Same(present bool, what string) bool {
	if got := c.Has(present); got != present {
		c.Mismatch("%s in checkpoint=%v, scenario=%v", what, got, present)
	}
	return present && c.Err() == nil
}

// Len walks the element count of a sequence. min is the fewest bytes one
// element can encode to: a loaded count is refused (ErrCorrupt) unless that
// many elements fit in the bytes that remain, which bounds every allocation
// and loop a count drives by the size of the input. A failed load counts
// zero.
func (c *Codec) Len(n, min int) int {
	if c.r != nil {
		return c.r.Count(min)
	}
	c.w.U64(uint64(n))
	return n
}

// FixedLen is Len for a sequence whose length is scenario configuration
// (ports, policies, registered sources): the rebuild already holds n
// elements for the walk to overlay, and a checkpoint with another count is
// an ErrMismatch naming what. It reports whether to walk the elements. min
// 0 declares elements that may encode to nothing; the count is then
// checked against n alone, which bounds everything it drives.
func (c *Codec) FixedLen(n, min int, what string) bool {
	var got uint64
	if min > 0 {
		got = uint64(c.Len(n, min))
	} else {
		got = c.U64(uint64(n))
	}
	if got != uint64(n) && c.Err() == nil {
		c.Mismatch("%d %s in checkpoint, %d in scenario", got, what, n)
	}
	return c.Err() == nil
}

// sized is the save-side check behind every declared minimum: an element
// that encodes to fewer bytes than its walk declares would write a
// checkpoint its own loader refuses, so that is a bug caught at the write.
func (c *Codec) sized(start, min int) {
	if c.w.Len()-start < min {
		panic(fmt.Sprintf("snapshot: element encoded to %d bytes, below its declared minimum of %d", c.w.Len()-start, min))
	}
}

// Slice walks a count and then each element in order. On load the slice is
// replaced: nil for a zero count, otherwise exactly the counted length.
// min is one element's minimum encoding (see Len), stated beside elem.
func Slice[T any](c *Codec, s *[]T, min int, elem func(*Codec, *T)) {
	n := c.Len(len(*s), min)
	if c.r == nil {
		for i := range *s {
			start := c.w.Len()
			elem(c, &(*s)[i])
			c.sized(start, min)
		}
		return
	}
	*s = nil
	if n > 0 {
		*s = make([]T, n)
	}
	for i := 0; i < n && c.r.err == nil; i++ {
		elem(c, &(*s)[i])
	}
}

// SharedSlice walks, one after another, lists of which many are equal (the
// route targets and cluster lists of a table of routes). Saved, each is
// written in full, as Slice writes it. A load hands out one list per
// distinct value: the encoding is self-delimiting and read front to back, so
// equal bytes are an equal list, and the common case — the list walked just
// before, again — is recognised from its bytes without decoding anything.
// The lists a load returns therefore share backing arrays and must not be
// modified in place.
type SharedSlice[T any] struct {
	enc  []byte // the previous list as encoded, aliasing the input
	list []T
	seen map[string][]T // every list loaded so far, by its encoding
}

// Walk walks one list, like Slice.
func (sh *SharedSlice[T]) Walk(c *Codec, s *[]T, min int, elem func(*Codec, *T)) {
	if c.r == nil {
		Slice(c, s, min, elem)
		return
	}
	start := c.r.off
	if c.r.err == nil && len(sh.enc) > 0 && bytes.HasPrefix(c.r.b[start:], sh.enc) {
		c.r.off += len(sh.enc)
		*s = sh.list
		return
	}
	Slice(c, s, min, elem)
	if c.r.err != nil {
		return
	}
	sh.enc = c.r.b[start:c.r.off]
	if list, ok := sh.seen[string(sh.enc)]; ok {
		*s = list
	} else {
		if sh.seen == nil {
			sh.seen = make(map[string][]T)
		}
		sh.seen[string(sh.enc)] = *s
	}
	sh.list = *s
}

// Each walks a count, *n, and then that many elements by index through
// elem: Slice for a sequence the caller keeps where it likes. A load sets
// *n, validated as Len validates it, before the first element, and walks
// elements until one fails; the caller allocates as it decodes, so what a
// count the bytes admit but do not hold costs is up to the caller.
func Each(c *Codec, n *int, min int, elem func(c *Codec, i int)) {
	*n = c.Len(*n, min)
	for i := 0; i < *n && c.Err() == nil; i++ {
		if c.r != nil {
			elem(c, i)
			continue
		}
		start := c.w.Len()
		elem(c, i)
		c.sized(start, min)
	}
}

// ptrChunk is how many elements a load of pointers allocates at a time.
const ptrChunk = 64

// slab hands a load of pointers the elements they point at, from backing
// arrays of up to ptrChunk elements instead of one allocation each. A chunk
// is allocated when an element is about to be decoded into it, which is
// after every element of the chunk before has been: what a load allocates
// stays bounded by the bytes it has decoded, whatever count they declared.
// An element keeps its whole chunk reachable.
type slab[T any] struct {
	free []T
	left int // elements the validated count still promises
}

func (s *slab[T]) next() *T {
	if len(s.free) == 0 {
		s.free = make([]T, min(s.left, ptrChunk))
	}
	p := &s.free[0]
	s.free = s.free[1:]
	s.left--
	return p
}

// Ptrs is Slice for a slice of pointers: a load allocates the elements, in
// chunks, before walking them. (Not a wrapper over Slice: the closure that
// would take is an allocation per call.)
func Ptrs[T any](c *Codec, s *[]*T, min int, elem func(*Codec, *T)) {
	n := c.Len(len(*s), min)
	if c.r == nil {
		for _, p := range *s {
			start := c.w.Len()
			elem(c, p)
			c.sized(start, min)
		}
		return
	}
	*s = nil
	if n > 0 {
		*s = make([]*T, n)
	}
	elems := slab[T]{left: n}
	for i := 0; i < n && c.r.err == nil; i++ {
		(*s)[i] = elems.next()
		elem(c, (*s)[i])
	}
}

// Refs walks a slice of references into a table of n distinct elements
// walked earlier, as each one's position there: a count, then a varint each,
// in one loop either way. pos is a reference's position, asked only when
// saving; at is the reference a loaded position stands for, asked only for a
// position inside the table: one past it is ErrCorrupt.
func Refs[T any](c *Codec, s *[]T, n int, pos func(T) int, at func(int) T) {
	count := c.Len(len(*s), 1)
	if c.r == nil {
		for _, ref := range *s {
			c.w.U64(uint64(pos(ref)))
		}
		return
	}
	*s = nil
	if count > 0 {
		*s = make([]T, count)
	}
	for i := range *s {
		k := c.r.U64()
		if c.r.err != nil {
			return
		}
		if k >= uint64(n) {
			c.Corrupt("reference to element %d of a table of %d", k, n)
			return
		}
		(*s)[i] = at(int(k))
	}
}

// sortedKeys returns m's keys in ascending cmp order: the order every map
// is saved in.
func sortedKeys[K comparable, V any](m map[K]V, cmp func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmp)
	return keys
}

// Map walks a count and then each entry as key, value. Saving visits keys
// in ascending cmp order, so the bytes do not depend on map iteration
// order; loading replaces the map with a new, never nil one and trusts the
// order it finds. min is one entry's minimum encoding: the key's plus the
// value's.
func Map[K comparable, V any](c *Codec, m *map[K]V, cmp func(a, b K) int, min int, key func(*Codec, *K), val func(*Codec, *V)) {
	n := c.Len(len(*m), min)
	// One cell each for the key and the value in flight: the func values
	// make both escape, and one allocation per walk beats one per entry.
	var k K
	var v V
	if c.r == nil {
		for _, k = range sortedKeys(*m, cmp) {
			start := c.w.Len()
			key(c, &k)
			v = (*m)[k]
			val(c, &v)
			c.sized(start, min)
		}
		return
	}
	*m = loadMap(c, n, key, val)
}

// loadMap reads the n entries of a map whose count has been validated.
func loadMap[K comparable, V any](c *Codec, n int, key func(*Codec, *K), val func(*Codec, *V)) map[K]V {
	var k K
	var v V
	out := make(map[K]V, n)
	for i := 0; i < n; i++ {
		var zero V
		v = zero
		key(c, &k)
		val(c, &v)
		if c.r.err != nil {
			break
		}
		out[k] = v
	}
	return out
}

// MapPtrs is Map for pointer values: a load allocates the values, in chunks,
// before walking them.
func MapPtrs[K comparable, V any](c *Codec, m *map[K]*V, cmp func(a, b K) int, min int, key func(*Codec, *K), val func(*Codec, *V)) {
	if c.r == nil {
		Map(c, m, cmp, min, key, func(c *Codec, p **V) { val(c, *p) })
		return
	}
	n := c.Len(0, min)
	vals := slab[V]{left: n}
	*m = loadMap(c, n, key, func(c *Codec, p **V) {
		*p = vals.next()
		val(c, *p)
	})
}

// Set walks a map used as a set: a count and then each key, ascending. Every
// key present is written whatever it maps to, and loads as true.
func Set[K comparable](c *Codec, m *map[K]bool, cmp func(a, b K) int, min int, key func(*Codec, *K)) {
	Map(c, m, cmp, min, key, func(c *Codec, v *bool) { *v = true })
}

// Overlay walks a map whose key set is scenario configuration (speakers by
// node, flows by key): a count, then each key and the state of the value it
// maps to, ascending. A load walks into the values the rebuild already
// holds, in the order it finds, and refuses with ErrMismatch a key the
// rebuild does not have. V is a pointer or interface: val walks through it.
func Overlay[K comparable, V any](c *Codec, m map[K]V, cmp func(a, b K) int, min int, what string, key func(*Codec, *K), val func(*Codec, V)) {
	n := c.Len(len(m), min)
	var k K
	if c.r == nil {
		for _, k = range sortedKeys(m, cmp) {
			start := c.w.Len()
			key(c, &k)
			val(c, m[k])
			c.sized(start, min)
		}
		return
	}
	for i := 0; i < n && c.r.err == nil; i++ {
		key(c, &k)
		v, ok := m[k]
		if c.r.err != nil {
			return
		}
		if !ok {
			c.Mismatch("%s %v not in scenario", what, k)
			return
		}
		val(c, v)
	}
}

// Dense walks the entries of a slice indexed by position (a router's rank,
// a FEC's), where present says which positions hold one: the number of
// entries, then each as its position and value, positions ascending. A load
// refuses (ErrCorrupt) a position outside s or not above the one before it
// before anything is indexed, and walks into the elements it finds named;
// the caller clears s first if absent entries must read as absent. min is
// one entry's minimum encoding, its one-byte position included.
func Dense[T any](c *Codec, s []T, present func(*T) bool, min int, val func(*Codec, *T)) {
	if c.r != nil {
		prev := -1
		for n := c.Len(0, min); n > 0 && c.r.err == nil; n-- {
			i := c.r.U64()
			if c.r.err == nil && (i >= uint64(len(s)) || int(i) <= prev) {
				c.Corrupt("position %d after %d in a table of %d", i, prev, len(s))
			}
			if c.r.err == nil {
				prev = int(i)
				val(c, &s[i])
			}
		}
		return
	}
	n := 0
	for i := range s {
		if present(&s[i]) {
			n++
		}
	}
	c.Len(n, min)
	for i := range s {
		if present(&s[i]) {
			start := c.w.Len()
			c.w.U64(uint64(i))
			val(c, &s[i])
			c.sized(start, min)
		}
	}
}

// Keyed walks a map of records keyed by one of their own fields (routes by
// destination): a count, then each record ascending by key — the key itself
// is not written twice. A load replaces the map, walking each record and
// filing it under keyOf.
func Keyed[K comparable, V any](c *Codec, m *map[K]V, cmp func(a, b K) int, min int, keyOf func(*V) K, val func(*Codec, *V)) {
	n := c.Len(len(*m), min)
	var v V
	if c.r == nil {
		for _, k := range sortedKeys(*m, cmp) {
			start := c.w.Len()
			v = (*m)[k]
			val(c, &v)
			c.sized(start, min)
		}
		return
	}
	*m = loadKeyed(c, n, keyOf, val)
}

// loadKeyed reads the n records of a keyed map whose count has been
// validated.
func loadKeyed[K comparable, V any](c *Codec, n int, keyOf func(*V) K, val func(*Codec, *V)) map[K]V {
	var v V
	out := make(map[K]V, n)
	for i := 0; i < n; i++ {
		var zero V
		v = zero
		val(c, &v)
		if c.r.err != nil {
			break
		}
		out[keyOf(&v)] = v
	}
	return out
}

// KeyedPtrs is Keyed for pointer values (VRFs by name, LSPs by ID): a load
// allocates the records, in chunks, before walking them.
func KeyedPtrs[K comparable, V any](c *Codec, m *map[K]*V, cmp func(a, b K) int, min int, keyOf func(*V) K, val func(*Codec, *V)) {
	byPtr := func(p **V) K { return keyOf(*p) }
	if c.r == nil {
		Keyed(c, m, cmp, min, byPtr, func(c *Codec, p **V) { val(c, *p) })
		return
	}
	n := c.Len(0, min)
	recs := slab[V]{left: n}
	*m = loadKeyed(c, n, byPtr, func(c *Codec, p **V) {
		*p = recs.next()
		val(c, *p)
	})
}
