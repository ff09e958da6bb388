package main

import (
	"strings"
	"testing"

	"mplsvpn/internal/testio"
)

// TestMainPrintsVerdict runs the example and asserts its verdict: voice
// survives the transit carrier's outage on the direct backup peering and
// returns through the transit carrier once it is restored.
func TestMainPrintsVerdict(t *testing.T) {
	if out := testio.StdoutOf(t, main); !strings.Contains(out, "OK: voice survived") {
		t.Fatalf("no OK verdict:\n%s", out)
	}
}
