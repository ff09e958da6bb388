//go:build race

package bgp

// raceEnabled reports a test binary built with -race. The detector
// allocates for itself, so an allocation budget is not comparable there.
const raceEnabled = true
