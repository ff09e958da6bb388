package mpls

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

// checkArena fails unless the live spans visit yields tile the arena with
// its holes: no two overlap, none runs past the array, and the rooms and
// the holes add up to its length.
func checkArena(t *testing.T, step int, a *arena, each func(visit func(*span))) {
	t.Helper()
	var live []span
	each(func(s *span) { live = append(live, *s) })
	sort.Slice(live, func(i, j int) bool { return live[i].off < live[j].off })
	used := 0
	for i, s := range live {
		if s.n > s.room || int(s.off)+int(s.room) > len(a.es) {
			t.Fatalf("step %d: span %+v does not fit an arena of %d", step, s, len(a.es))
		}
		if i > 0 && live[i-1].off+uint32(live[i-1].room) > s.off {
			t.Fatalf("step %d: spans %+v and %+v overlap", step, live[i-1], s)
		}
		used += int(s.room)
	}
	if used+a.holes != len(a.es) {
		t.Fatalf("step %d: %d members of room and %d holes in an arena of %d", step, used, a.holes, len(a.es))
	}
}

// arenaMember is a random action on one of eight links, so that sets
// collide on out-links and DetourVia finds members to rewrite.
func arenaMember(rng *rand.Rand) NHLFE {
	return NHLFE{Op: Op(rng.Intn(3)), OutLabel: packet.Label(16 + rng.Intn(1000)), OutLink: topo.LinkID(rng.Intn(9) - 1)}
}

// addModel is AddILM/AddBind on a plain slice: insert by out-link, ignore a
// duplicate out-link.
func addModel(es []NHLFE, e NHLFE) []NHLFE {
	i, dup := position(es, e.OutLink)
	if dup {
		return es
	}
	return slices.Insert(slices.Clone(es), i, e)
}

// TestLFIBArenaMatchesMapModel drives one LFIB with random binds, adds,
// whole-set replacements, resets that grow and shrink, unbinds and detours,
// and after every step compares it with a map of plain slices and checks
// that the arena's spans tile it. The label range is small, so sets move
// and are unbound often enough to compact the arena many times. The run
// ends with a save, a load into a fresh LFIB, and a second save that must
// repeat the first byte for byte.
func TestLFIBArenaMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	f := NewLFIB()
	model := map[packet.Label][]NHLFE{}
	compactions := 0
	const labels = 40
	for step := 0; step < 20_000; step++ {
		in := packet.Label(16 + rng.Intn(labels))
		before := len(f.sets.es)
		switch rng.Intn(8) {
		case 0:
			e := arenaMember(rng)
			f.BindILM(in, e)
			model[in] = []NHLFE{e}
		case 1, 2:
			e := arenaMember(rng)
			f.AddILM(in, e)
			model[in] = addModel(model[in], e)
		case 3:
			es := make([]NHLFE, rng.Intn(4))
			for i := range es {
				es[i] = arenaMember(rng)
			}
			f.SetILM(in, es)
			model[in] = es
		case 4, 5:
			n := rng.Intn(6)
			var room uint16
			if int(in) < len(f.ilm) {
				room = f.ilm[in].room
			}
			es := f.ResetILM(in, n)
			if len(es) != n {
				t.Fatalf("step %d: ResetILM(%d, %d) returned %d actions", step, in, n, len(es))
			}
			if room > 0 && n <= int(room) && len(f.sets.es) != before {
				t.Fatalf("step %d: ResetILM to %d within a room of %d grew the arena", step, n, room)
			}
			for i := range es {
				es[i] = arenaMember(rng)
			}
			model[in] = slices.Clone(es)
		case 6:
			f.UnbindILM(in)
			delete(model, in)
		case 7:
			failed, bypass := topo.LinkID(rng.Intn(8)), topo.LinkID(8+rng.Intn(4))
			label := packet.LabelImplicitNull
			if rng.Intn(2) == 0 {
				label = packet.Label(16 + rng.Intn(100))
			}
			want := 0
			for _, es := range model {
				for i := range es {
					if es[i].OutLink == failed {
						if label == packet.LabelImplicitNull {
							es[i].OutLink = bypass
						} else {
							es[i].BypassLabel, es[i].BypassLink = label, bypass
						}
						want++
					}
				}
			}
			if got := f.DetourVia(failed, label, bypass); got != want {
				t.Fatalf("step %d: DetourVia rewrote %d entries, the model %d", step, got, want)
			}
		}
		if len(f.sets.es) < before && f.sets.holes == 0 {
			compactions++
		}
		checkArena(t, step, &f.sets, func(visit func(*span)) {
			for i := range f.ilm {
				if f.ilm[i].bound() {
					visit(&f.ilm[i])
				}
			}
		})
		if f.ILMSize() != len(model) {
			t.Fatalf("step %d: ILMSize %d, model %d", step, f.ILMSize(), len(model))
		}
		for l := packet.Label(16); l < 16+labels; l++ {
			got := f.actions(l)
			want, ok := model[l]
			if (got != nil) != ok || !slices.Equal(got, want) {
				t.Fatalf("step %d: label %d holds %v, the model %v (bound %v)", step, l, got, want, ok)
			}
		}
	}
	if compactions == 0 {
		t.Fatal("no step compacted the arena")
	}
	t.Logf("%d compactions", compactions)

	var first, second snapshot.Writer
	f.State(snapshot.Saver(&first))
	g := NewLFIB()
	if err := snapshot.Load(snapshot.NewReader(first.Data()), g.State); err != nil {
		t.Fatal(err)
	}
	g.State(snapshot.Saver(&second))
	if !bytes.Equal(first.Data(), second.Data()) {
		t.Fatal("a loaded LFIB saves different bytes")
	}
}

// TestFTNArenaMatchesMapModel is the LFIB test for an FTN: random AddBind,
// Bind, BindWithRoom, ResetSet and Unbind on a few dozen FECs, each step compared with a
// map of plain slices, the arena compacted along the way, and a save, load
// and save that repeat their bytes.
func TestFTNArenaMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	f := NewFTN()
	model := map[addr.Prefix][]NHLFE{}
	var fecs []addr.Prefix
	for i := 0; i < 30; i++ {
		fecs = append(fecs, addr.NewPrefix(addr.IPv4(0x0a000000|uint32(i)<<12), uint8(20+i%13)))
	}
	compactions := 0
	for step := 0; step < 20_000; step++ {
		fec := fecs[rng.Intn(len(fecs))]
		before := len(f.sets.es)
		switch rng.Intn(7) {
		case 0:
			e := arenaMember(rng)
			f.Bind(fec, e)
			model[fec] = []NHLFE{e}
		case 6:
			e := arenaMember(rng)
			f.BindWithRoom(fec, e, rng.Intn(6))
			model[fec] = []NHLFE{e}
		case 1, 2:
			e := arenaMember(rng)
			f.AddBind(fec, e)
			model[fec] = addModel(model[fec], e)
		case 3, 4:
			es := f.ResetSet(fec, rng.Intn(6))
			for i := range es {
				es[i] = arenaMember(rng)
			}
			model[fec] = slices.Clone(es)
		case 5:
			f.Unbind(fec)
			delete(model, fec)
		}
		if len(f.sets.es) < before && f.sets.holes == 0 {
			compactions++
		}
		checkArena(t, step, &f.sets, func(visit func(*span)) {
			if f.table != nil {
				f.table.Values(visit)
			}
		})
		if f.Size() != len(model) {
			t.Fatalf("step %d: Size %d, model %d", step, f.Size(), len(model))
		}
		for _, p := range fecs {
			var s span
			var ok bool
			if f.table != nil {
				s, ok = f.table.Exact(p)
			}
			want, wok := model[p]
			if ok != wok || !slices.Equal(f.members(s), want) {
				t.Fatalf("step %d: FEC %v holds %v, the model %v (bound %v)", step, p, f.members(s), want, wok)
			}
		}
	}
	if compactions == 0 {
		t.Fatal("no step compacted the arena")
	}
	t.Logf("%d compactions", compactions)

	var first, second snapshot.Writer
	f.State(snapshot.Saver(&first))
	g := NewFTN()
	if err := snapshot.Load(snapshot.NewReader(first.Data()), g.State); err != nil {
		t.Fatal(err)
	}
	g.State(snapshot.Saver(&second))
	if !bytes.Equal(first.Data(), second.Data()) {
		t.Fatal("a loaded FTN saves different bytes")
	}
}

// TestBindWithRoomAddsInPlace: a FEC bound with room for four takes three
// more equal-cost entries through AddBind without moving its set or leaving
// a hole.
func TestBindWithRoomAddsInPlace(t *testing.T) {
	f := NewFTN()
	fec := addr.NewPrefix(addr.IPv4(0x0a000000), 24)
	f.BindWithRoom(fec, NHLFE{Op: OpPush, OutLabel: 20, OutLink: 3}, 4)
	s, _ := f.table.Exact(fec)
	for _, link := range []topo.LinkID{1, 4, 2} {
		f.AddBind(fec, NHLFE{Op: OpPush, OutLabel: 20, OutLink: link})
	}
	got, _ := f.table.Exact(fec)
	if got.off != s.off || got.room != 4 || f.sets.holes != 0 || len(f.sets.es) != 4 {
		t.Errorf("set moved from %+v to %+v, %d holes in an arena of %d", s, got, f.sets.holes, len(f.sets.es))
	}
	var links []topo.LinkID
	for _, e := range f.members(got) {
		links = append(links, e.OutLink)
	}
	if !slices.Equal(links, []topo.LinkID{1, 2, 3, 4}) {
		t.Errorf("entries on links %v, want 1 2 3 4", links)
	}
}
