package main

import (
	"strings"
	"testing"

	"mplsvpn/internal/testio"
)

// TestMainDeliversEveryProbe runs the example and asserts its verdict:
// every probe crossed the backbone from hq to branch.
func TestMainDeliversEveryProbe(t *testing.T) {
	if out := testio.StdoutOf(t, main); !strings.Contains(out, "\nOK: all probes delivered end to end\n") {
		t.Fatalf("no OK verdict:\n%s", out)
	}
}
