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
		{"attribute set", setMin, func(c *snapshot.Codec) { new(routeTable).set(c, new(attrs)) }},
		// A table of no set and one route: the two counts, then the route.
		{"route", 2 + entryMin, func(c *snapshot.Codec) {
			m := NewMesh()
			m.routes = []entry{{}}
			(&routeTable{m: m}).tables(c)
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
