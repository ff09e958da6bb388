package bgp

import (
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
		{"route", routeMin, func(c *snapshot.Codec) { new(routeTable).route(c, new(VPNRoute)) }},
		// A list of one reference, to the only route of the table: its
		// one-byte count, then the reference.
		{"route reference", 1 + refMin, func(c *snapshot.Codec) {
			m := NewMesh()
			s := m.AddSpeaker(0, 0)
			s.Originate(new(VPNRoute))
			t := routeTable{m: m}
			t.number()
			t.refs(c, &s.exports)
		}},
		{"damping state", dampMin, func(c *snapshot.Codec) { dampStateState(c, new(dampState)) }},
	} {
		var w snapshot.Writer
		tc.save(snapshot.Saver(&w))
		if w.Len() != tc.min {
			t.Errorf("%s: smallest value encodes to %d bytes, declared minimum %d", tc.name, w.Len(), tc.min)
		}
	}
}
