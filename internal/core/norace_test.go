//go:build !race

package core

// raceEnabled reports a test binary built with -race; see race_test.go.
const raceEnabled = false
