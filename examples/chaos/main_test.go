package main

import (
	"strings"
	"testing"

	"mplsvpn/internal/testio"
)

// TestMainKeepsIsolation runs the example and asserts its claim: after
// every injected fault the invariant checker finds nothing, and no packet
// crossed between the two VPNs.
func TestMainKeepsIsolation(t *testing.T) {
	out := testio.StdoutOf(t, main)
	if strings.Contains(out, "VIOLATION:") {
		t.Fatalf("invariant violations:\n%s", out)
	}
	if !strings.Contains(out, "isolation violations: 0\n") {
		t.Fatalf("no clean isolation verdict:\n%s", out)
	}
}
