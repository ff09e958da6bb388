//go:build !race

package ospf

// raceEnabled reports a test binary built with -race; see race_test.go.
const raceEnabled = false
