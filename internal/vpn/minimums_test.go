package vpn

import (
	"testing"

	"mplsvpn/internal/addr"
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
		{"site", siteMin, func(c *snapshot.Codec) { siteState(c, new(Site)) }},
		{"site slot", slotMin, func(c *snapshot.Codec) { slotState(c, new(siteSlot)) }},
		{"VRF", VRFMin, func(c *snapshot.Codec) { VRFState(c, NewVRF("", 0, addr.RouteDistinguisher{}, nil, nil)) }},
	} {
		var w snapshot.Writer
		tc.save(snapshot.Saver(&w))
		if w.Len() != tc.min {
			t.Errorf("%s: smallest value encodes to %d bytes, declared minimum %d", tc.name, w.Len(), tc.min)
		}
	}
}
