package addr

import (
	"errors"
	"testing"

	"mplsvpn/internal/snapshot"
)

// TestElementMinimumsAreLowerBounds: every minimum this package declares
// for an element walk bounds the counts a loader accepts, so it must not
// exceed what the walk can write. The smallest legal value of each element
// is saved and must encode to exactly the declared minimum: no smaller, or a
// saver could write a count its own loader refuses; no larger, or the bound
// is looser than it need be.
func TestElementMinimumsAreLowerBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		min  int
		save func(c *snapshot.Codec)
	}{
		{"prefix", PrefixMin, func(c *snapshot.Codec) { PrefixState(c, new(Prefix)) }},
		{"route target", RTMin, func(c *snapshot.Codec) { RTState(c, new(RouteTarget)) }},
		{"VPN prefix", VPNPrefixMin, func(c *snapshot.Codec) { VPNPrefixState(c, new(VPNPrefix)) }},
	} {
		var w snapshot.Writer
		tc.save(snapshot.Saver(&w))
		if w.Len() != tc.min {
			t.Errorf("%s: smallest value encodes to %d bytes, declared minimum %d", tc.name, w.Len(), tc.min)
		}
	}
}

// TestTableStateRefusesImpossibleLength: a checkpoint is outside input, and a
// prefix length above 32 in one must fail the load, not reach Insert.
func TestTableStateRefusesImpossibleLength(t *testing.T) {
	var w snapshot.Writer
	w.U64(1)  // one entry
	w.U64(0)  // address
	w.U64(33) // length
	w.U64(7)  // value
	tb := NewTable[int]()
	err := snapshot.Load(snapshot.NewReader(w.Data()), func(c *snapshot.Codec) {
		TableState(c, &tb, PrefixMin+1, func(c *snapshot.Codec, _ Prefix, v *int) { snapshot.Int(c, v) })
	})
	if !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("load of a /33 returned %v, want ErrCorrupt", err)
	}
	if tb.Len() != 0 {
		t.Fatalf("a /33 was installed: %v", tb.Prefixes())
	}
}
