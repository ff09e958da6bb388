package snapshot

import (
	"bytes"
	"cmp"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

type walkRec struct {
	ID   int
	Name string
	Tags []uint16
}

func walkRecState(c *Codec, r *walkRec) {
	Int(c, &r.ID)
	c.Str(&r.Name)
	Slice(c, &r.Tags, 1, Uint[uint16])
}

type walkState struct {
	N      int64
	F      float64
	On     bool
	Recs   []walkRec
	Ptrs   []*walkRec
	ByName map[string]int
	ByID   map[int]*walkRec
	Seen   map[uint8]bool
	Keyed  map[int]*walkRec
}

func (s *walkState) state(c *Codec) {
	Int(c, &s.N)
	c.F64(&s.F)
	c.Bool(&s.On)
	Slice(c, &s.Recs, 3, walkRecState)
	Ptrs(c, &s.Ptrs, 3, walkRecState)
	Map(c, &s.ByName, cmp.Compare[string], 2, (*Codec).Str, Int[int])
	MapPtrs(c, &s.ByID, cmp.Compare[int], 1+3, Int[int], walkRecState)
	Set(c, &s.Seen, cmp.Compare[uint8], 1, Uint[uint8])
	KeyedPtrs(c, &s.Keyed, cmp.Compare[int], 3, func(r *walkRec) int { return r.ID }, walkRecState)
}

func sampleWalkState() *walkState {
	return &walkState{
		N: -5, F: 2.5, On: true,
		Recs:   []walkRec{{ID: 1, Name: "a", Tags: []uint16{7, 300}}, {ID: 2}},
		Ptrs:   []*walkRec{{ID: 9, Name: "p"}},
		ByName: map[string]int{"z": 1, "a": 2, "m": 3},
		ByID:   map[int]*walkRec{4: {ID: 4, Name: "four"}, -1: {ID: -1}},
		Seen:   map[uint8]bool{3: true, 1: false},
		Keyed:  map[int]*walkRec{8: {ID: 8, Name: "k"}, 2: {ID: 2}},
	}
}

// TestWalkRoundTrip: one walk, both directions. What a Saver wrote a Loader
// reads back into equal state, and saving that again gives the same bytes.
func TestWalkRoundTrip(t *testing.T) {
	var w Writer
	sampleWalkState().state(Saver(&w))

	var got walkState
	c := Loader(NewReader(w.Data()))
	if got.state(c); c.Err() != nil {
		t.Fatal(c.Err())
	}
	want := sampleWalkState()
	want.Seen[1] = true // a set loads every key as true
	if !reflect.DeepEqual(&got, want) {
		t.Errorf("loaded state differs:\n got %+v\nwant %+v", got, *want)
	}
	var w2 Writer
	got.state(Saver(&w2))
	if string(w2.Data()) != string(w.Data()) {
		t.Errorf("save(load(s)) != s")
	}
}

// TestWalkKeyOrder: maps are written in ascending key order whatever order
// the runtime iterates them in.
func TestWalkKeyOrder(t *testing.T) {
	m := map[string]int{"b": 2, "c": 3, "a": 1}
	var w, want Writer
	Map(Saver(&w), &m, cmp.Compare[string], 2, (*Codec).Str, Int[int])
	want.U64(3)
	for _, k := range []string{"a", "b", "c"} {
		want.Str(k)
		want.I64(int64(m[k]))
	}
	if string(w.Data()) != string(want.Data()) {
		t.Errorf("map bytes %x, want %x", w.Data(), want.Data())
	}
}

// TestWalkEmptyContainers is the nil-versus-empty contract: a zero count
// loads as a nil slice and as an allocated, empty map, whatever was there.
func TestWalkEmptyContainers(t *testing.T) {
	var w Writer
	(&walkState{}).state(Saver(&w))
	got := sampleWalkState()
	c := Loader(NewReader(w.Data()))
	if got.state(c); c.Err() != nil {
		t.Fatal(c.Err())
	}
	if got.Recs != nil || got.Ptrs != nil {
		t.Errorf("empty slices loaded as %v, %v; want nil", got.Recs, got.Ptrs)
	}
	if got.ByName == nil || got.ByID == nil || got.Seen == nil || got.Keyed == nil {
		t.Errorf("an empty map loaded as nil")
	}
	if len(got.ByName)+len(got.ByID)+len(got.Seen)+len(got.Keyed) != 0 {
		t.Errorf("empty maps kept old entries")
	}
}

// TestWalkRefusesHostileCounts: a count the remaining bytes cannot hold at
// the declared minimum is ErrCorrupt before anything is allocated, and a
// truncated element is ErrTruncated; both stick.
func TestWalkRefusesHostileCounts(t *testing.T) {
	var w Writer
	w.U64(1 << 40)
	var recs []walkRec
	c := Loader(NewReader(w.Data()))
	if Slice(c, &recs, 3, walkRecState); !errors.Is(c.Err(), ErrCorrupt) || recs != nil {
		t.Errorf("oversized count: err %v, slice %v", c.Err(), recs)
	}

	w = Writer{}
	sampleWalkState().state(Saver(&w))
	for n := 0; n < w.Len(); n++ {
		var got walkState
		c := Loader(NewReader(w.Data()[:n]))
		got.state(c)
		if !errors.Is(c.Err(), ErrTruncated) && !errors.Is(c.Err(), ErrCorrupt) {
			t.Fatalf("truncated to %d bytes: err = %v", n, c.Err())
		}
	}
}

// TestWalkScenarioChecks: Same, FixedLen and Overlay compare the checkpoint
// with the state being overlaid and refuse a different shape as ErrMismatch.
func TestWalkScenarioChecks(t *testing.T) {
	var w Writer
	c := Saver(&w)
	if !c.Same(true, "meter") || !c.FixedLen(3, 1, "ports") {
		t.Fatal("a Saver must walk what is present")
	}
	held := map[int]*walkRec{1: {ID: 1}, 2: {ID: 2}}
	Overlay(c, held, cmp.Compare[int], 4, "record", Int[int], walkRecState)

	load := func(check func(c *Codec)) error {
		c := Loader(NewReader(w.Data()))
		check(c)
		return c.Err()
	}
	if err := load(func(c *Codec) { c.Same(true, "meter"); c.FixedLen(3, 1, "ports") }); err != nil {
		t.Errorf("matching shape refused: %v", err)
	}
	if err := load(func(c *Codec) { c.Same(false, "meter") }); !errors.Is(err, ErrMismatch) {
		t.Errorf("presence skew: err = %v", err)
	}
	if err := load(func(c *Codec) { c.Same(true, "meter"); c.FixedLen(4, 1, "ports") }); !errors.Is(err, ErrMismatch) {
		t.Errorf("length skew: err = %v", err)
	}
	if err := load(func(c *Codec) {
		c.Same(true, "meter")
		c.FixedLen(3, 1, "ports")
		Overlay(c, map[int]*walkRec{1: {}}, cmp.Compare[int], 4, "record", Int[int], walkRecState)
	}); !errors.Is(err, ErrMismatch) {
		t.Errorf("key the rebuild lacks: err = %v", err)
	}
	into := map[int]*walkRec{1: {Name: "kept"}, 2: {}}
	if err := load(func(c *Codec) {
		c.Same(true, "meter")
		c.FixedLen(3, 1, "ports")
		Overlay(c, into, cmp.Compare[int], 4, "record", Int[int], walkRecState)
	}); err != nil || into[2].ID != 2 || into[1].Name != "" {
		t.Errorf("overlay: err %v, records %+v %+v", err, into[1], into[2])
	}
}

// TestWalkMinimumCheckedOnSave: an element that writes fewer bytes than its
// declared minimum is a bug in the declaration, caught where it is written.
func TestWalkMinimumCheckedOnSave(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a minimum above the element's encoding was not caught")
		}
	}()
	tags := []uint16{1}
	var w Writer
	Slice(Saver(&w), &tags, 2, Uint[uint16])
}

// TestPtrsLoadInChunks: a load of pointers takes its elements from backing
// arrays of up to ptrChunk, and a count the remaining bytes admit but do not
// hold costs one chunk, not the count.
func TestPtrsLoadInChunks(t *testing.T) {
	in := make([]*walkRec, 3*ptrChunk/2)
	for i := range in {
		in[i] = &walkRec{ID: i}
	}
	var w Writer
	Ptrs(Saver(&w), &in, 3, walkRecState)

	var out []*walkRec
	c := Loader(NewReader(w.Data()))
	if Ptrs(c, &out, 3, walkRecState); c.Err() != nil {
		t.Fatal(c.Err())
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatal("loaded pointers differ from the ones saved")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		Ptrs(Loader(NewReader(w.Data())), &out, 3, walkRecState)
	}); allocs > 6 {
		t.Errorf("loading %d pointers took %.0f allocations, want the codec, the reader, the slice and two chunks", len(in), allocs)
	}

	// 30,000 declared, 3 bytes each admitted, two present.
	var h Writer
	h.U64(30_000)
	walkRecState(Saver(&h), &walkRec{ID: 1})
	walkRecState(Saver(&h), &walkRec{ID: 2})
	hostile := append(h.Data(), bytes.Repeat([]byte{0xff}, 90_000)...)
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	c = Loader(NewReader(hostile))
	Ptrs(c, &out, 3, walkRecState)
	runtime.ReadMemStats(&m2)
	if !errors.Is(c.Err(), ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", c.Err())
	}
	// The slice of pointers is the count's (240 KB), and the count was
	// validated; the elements, 48 bytes each, must be one chunk's worth and
	// not the 1.4 MB the count would have them be.
	if got := m2.TotalAlloc - m1.TotalAlloc; got > 300_000 {
		t.Errorf("refusing the list allocated %d bytes", got)
	}
}

// TestRefs: a list of pointers into a table round-trips as positions, keeps
// the identity of what it points at, and refuses a position past the table.
func TestRefs(t *testing.T) {
	table := []*walkRec{{ID: 10}, {ID: 11}, {ID: 12}}
	pos := func(r *walkRec) int { return r.ID - 10 }
	at := func(k int) *walkRec { return table[k] }
	in := []*walkRec{table[2], table[0], table[2]}
	var w Writer
	Refs(Saver(&w), &in, len(table), pos, at)
	if want := []byte{3, 2, 0, 2}; !bytes.Equal(w.Data(), want) {
		t.Fatalf("encoded % x, want % x", w.Data(), want)
	}
	var out []*walkRec
	c := Loader(NewReader(w.Data()))
	if Refs(c, &out, len(table), pos, at); c.Err() != nil {
		t.Fatal(c.Err())
	}
	if len(out) != 3 || out[0] != table[2] || out[1] != table[0] || out[2] != table[2] {
		t.Errorf("loaded references do not point into the table: %v", out)
	}
	c = Loader(NewReader([]byte{2, 1, 3}))
	if Refs(c, &out, len(table), pos, at); !errors.Is(c.Err(), ErrCorrupt) {
		t.Errorf("position past the table: err = %v, want ErrCorrupt", c.Err())
	}
	c = Loader(NewReader([]byte{3, 1}))
	if Refs(c, &out, len(table), pos, at); !errors.Is(c.Err(), ErrCorrupt) && !errors.Is(c.Err(), ErrTruncated) {
		t.Errorf("list cut short: err = %v, want a typed error", c.Err())
	}
}

// TestSharedSlice: equal lists load as one list, next to each other or not;
// unequal ones stay apart; and what is loaded saves to the bytes it was
// loaded from.
func TestSharedSlice(t *testing.T) {
	lists := [][]uint16{{1, 300}, {1, 300}, {2}, nil, {1, 300}, {2}, nil}
	walk := func(c *Codec, lists [][]uint16) {
		var sh SharedSlice[uint16]
		for i := range lists {
			sh.Walk(c, &lists[i], 1, Uint[uint16])
		}
	}
	var w Writer
	walk(Saver(&w), lists)

	got := make([][]uint16, len(lists))
	c := Loader(NewReader(w.Data()))
	if walk(c, got); c.Err() != nil {
		t.Fatal(c.Err())
	}
	if !reflect.DeepEqual(got, lists) {
		t.Fatalf("loaded %v, want %v", got, lists)
	}
	for _, same := range [][2]int{{0, 1}, {0, 4}, {2, 5}} {
		if i, j := same[0], same[1]; &got[i][0] != &got[j][0] {
			t.Errorf("lists %d and %d are equal and were loaded apart", i, j)
		}
	}
	if &got[0][0] == &got[2][0] {
		t.Error("unequal lists share a backing array")
	}
	var w2 Writer
	walk(Saver(&w2), got)
	if !bytes.Equal(w2.Data(), w.Data()) {
		t.Error("save(load(s)) != s")
	}
}

// TestDensePositions: Dense writes the positions that hold an entry, and a
// load refuses a position outside the table or not above the one before it
// with ErrCorrupt, before it indexes anything.
func TestDensePositions(t *testing.T) {
	present := func(v *int) bool { return *v != 0 }
	walk := func(s []int) func(*Codec) {
		return func(c *Codec) { Dense(c, s, present, 2, Int[int]) }
	}
	var w Writer
	walk([]int{0, 7, 0, 9})(Saver(&w))
	if want := []byte{2, 1, 14, 3, 18}; !bytes.Equal(w.Data(), want) {
		t.Fatalf("Dense wrote %v, want %v", w.Data(), want)
	}
	got := make([]int, 4)
	if err := Load(NewReader(w.Data()), walk(got)); err != nil || !reflect.DeepEqual(got, []int{0, 7, 0, 9}) {
		t.Fatalf("loaded %v (%v)", got, err)
	}
	for _, bad := range [][]byte{{1, 4, 2}, {2, 3, 2, 1, 2}, {2, 1, 2, 1, 2}} {
		if err := Load(NewReader(bad), walk(make([]int, 4))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("positions %v: err = %v, want ErrCorrupt", bad, err)
		}
	}
}
