package main

import (
	"strings"
	"testing"

	"mplsvpn/internal/testio"
)

// TestMainPrintsIdentical runs the example and asserts its verdict: the
// killed-and-restarted run provides the uninterrupted run's service, and
// the kill did land in a commit window.
func TestMainPrintsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("provisions 2,000 sites twice (about 6 s)")
	}
	if out := testio.StdoutOf(t, main); !strings.Contains(out, "digests IDENTICAL") {
		t.Fatalf("no IDENTICAL verdict:\n%s", out)
	}
}
