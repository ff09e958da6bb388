package mpls

import (
	"bytes"
	"errors"
	"testing"

	"mplsvpn/internal/packet"
	"mplsvpn/internal/snapshot"
)

// nhlfesState walks a set as snapshot.Slice walks a []NHLFE: the encoding
// the ILM and FTN walks write for each set.
func nhlfesState(c *snapshot.Codec, es *[]NHLFE) { snapshot.Slice(c, es, NHLFEMin, NHLFEState) }

// The ILM is a slice, its checkpoint a map's: the count of bound labels,
// then (label, actions) ascending — unbound gaps and the order of binding
// leave no trace, and a label bound to an empty set is still written. A
// load rebuilds the same table and the same count.
func TestILMStateIsTheMapEncoding(t *testing.T) {
	f := NewLFIB()
	f.BindILM(900, NHLFE{Op: OpPop, OutLink: -1})
	f.BindILM(17, NHLFE{Op: OpSwap, OutLabel: 40, OutLink: 3})
	f.AddILM(17, NHLFE{Op: OpSwap, OutLabel: 41, OutLink: 2})
	f.BindILM(500, NHLFE{Op: OpSwap, OutLabel: 9, OutLink: 1})
	f.UnbindILM(500)
	f.UnbindILM(5000) // never bound, beyond the slice
	f.SetILM(30, nil)
	if f.ILMSize() != 3 {
		t.Fatalf("ILMSize = %d, want 3", f.ILMSize())
	}
	if es, ok := f.LookupILMAll(30); ok || es == nil {
		t.Fatalf("label bound to no actions: LookupILMAll = %v, %v", es, ok)
	}

	var got, want snapshot.Writer
	f.State(snapshot.Saver(&got))
	c := snapshot.Saver(&want)
	c.I64(0) // Swapped, Pushed, Popped
	c.I64(0)
	c.I64(0)
	c.U64(3)
	for _, in := range []packet.Label{17, 30, 900} {
		c.U64(uint64(in))
		es, _ := f.LookupILMAll(in)
		nhlfesState(c, &es)
	}
	if !bytes.Equal(got.Data(), want.Data()) {
		t.Fatalf("ILM section\n got %x\nwant %x", got.Data(), want.Data())
	}

	g := NewLFIB()
	g.BindILM(77, NHLFE{}) // a load replaces what the rebuild bound
	if err := snapshot.Load(snapshot.NewReader(got.Data()), g.State); err != nil {
		t.Fatal(err)
	}
	var again snapshot.Writer
	g.State(snapshot.Saver(&again))
	if !bytes.Equal(again.Data(), got.Data()) || g.ILMSize() != 3 || len(g.ilm) != 901 {
		t.Fatalf("reloaded ILM: %d bound over %d slots, bytes equal %v", g.ILMSize(), len(g.ilm), bytes.Equal(again.Data(), got.Data()))
	}
}

// A label is an index now, so a checkpoint naming one outside the 20-bit
// space must be refused before the slice grows to it.
func TestILMStateRefusesLabelAboveSpace(t *testing.T) {
	for _, in := range []uint64{uint64(packet.MaxLabel) + 1, 1 << 40, 1<<64 - 1} {
		var w snapshot.Writer
		c := snapshot.Saver(&w)
		c.I64(0)
		c.I64(0)
		c.I64(0)
		c.U64(1)
		c.U64(in)
		es := []NHLFE{{Op: OpPop, OutLink: -1}}
		nhlfesState(c, &es)
		f := NewLFIB()
		err := snapshot.Load(snapshot.NewReader(w.Data()), f.State)
		if !errors.Is(err, snapshot.ErrCorrupt) || len(f.ilm) != 0 {
			t.Fatalf("label %d: err = %v with %d slots grown, want ErrCorrupt and none", in, err, len(f.ilm))
		}
	}
}
