package main

import (
	"strings"
	"testing"

	"mplsvpn/internal/testio"
)

// TestMainShowsTheFigures runs the example and asserts what it shows: the
// §4.2 exchange lists the four VPN-IPv4 routes of vpn-A and vpn-B, each with
// the next hop and the label it carries; the two VPNs' equal addresses never
// meet; path 1 is delivered end to end and path 2 stops at the edge.
func TestMainShowsTheFigures(t *testing.T) {
	out := testio.StdoutOf(t, main)
	const rib = "== §4.2 reachability exchange (MP-BGP, labels piggybacked) ==\n" +
		"  [rib LSR-edge-1] 65000:1:10.1.0.0/16 via 10.255.0.0 label 19\n" +
		"  [rib LSR-edge-1] 65000:1:10.2.0.0/16 via 10.255.0.3 label 19\n" +
		"  [rib LSR-edge-1] 65000:2:10.1.0.0/16 via 10.255.0.0 label 20\n" +
		"  [rib LSR-edge-1] 65000:2:10.2.0.0/16 via 10.255.0.3 label 20\n\n"
	if !strings.Contains(out, rib) {
		t.Errorf("the §4.2 block is not\n%s\nin:\n%s", rib, out)
	}
	if !strings.Contains(out, "isolation violations: 0 ") {
		t.Errorf("no clean isolation verdict:\n%s", out)
	}
	// last returns the last line of the block that follows head and ends
	// before tail.
	last := func(head, tail string) string {
		_, block, _ := strings.Cut(out, head)
		block, _, _ = strings.Cut(block, tail)
		lines := strings.Split(strings.TrimSpace(block), "\n")
		return strings.TrimSpace(lines[len(lines)-1])
	}
	if got := last("\npath 1 ", "\npath 2 "); !strings.HasPrefix(got, "delivered") {
		t.Errorf("path 1 ends %q, want delivered:\n%s", got, out)
	}
	if got, want := last("\npath 2 ", "\n  (no unlabelled"), "NOT delivered: drop: no_route"; got != want {
		t.Errorf("path 2 ends %q, want %q:\n%s", got, want, out)
	}
}
