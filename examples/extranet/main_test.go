package main

import (
	"regexp"
	"strings"
	"testing"

	"mplsvpn/internal/testio"
)

// TestMainSeparatesTheCompanies runs the example and asserts its claim: no
// packet crossed between the two companies' VPNs, the cross-company flow
// delivered nothing, and every legitimate flow got through.
func TestMainSeparatesTheCompanies(t *testing.T) {
	out := testio.StdoutOf(t, main)
	if !strings.Contains(out, "isolation violations: 0\n") {
		t.Fatalf("no clean isolation verdict:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^cross +sent=[1-9]\d* +dlvd=0 `).MatchString(out) {
		t.Fatalf("the cross-company flow delivered something, or sent nothing:\n%s", out)
	}
	if !strings.Contains(out, "\nOK: same addresses, separate worlds") {
		t.Fatalf("no OK verdict:\n%s", out)
	}
}
