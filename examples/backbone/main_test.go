package main

import (
	"regexp"
	"strconv"
	"testing"

	"mplsvpn/internal/testio"
)

// TestFibreCutCostsOnlyDetection runs the example and asserts its story:
// the three VPNs stay isolated, every flow delivers at least 95 % of what
// it sent across the mid-run CHI-NYC cut, and the bank's voice, 80
// deliveries per 100 ms, falls short only in the buckets the 150 ms
// detection spans (2 s to 2.2 s), and is back at full rate from then on.
func TestFibreCutCostsOnlyDetection(t *testing.T) {
	out := testio.StdoutOf(t, main)
	num := func(s string) int {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if !regexp.MustCompile(`(?m)^isolation violations: 0,`).MatchString(out) {
		t.Fatalf("no report of zero isolation violations:\n%s", out)
	}
	flows := regexp.MustCompile(`(?m)^(\S+)\s+sent=(\d+)\s+dlvd=(\d+)`).FindAllStringSubmatch(out, -1)
	if len(flows) != 5 {
		t.Fatalf("want the SLA report's five flows, got %d:\n%s", len(flows), out)
	}
	for _, f := range flows {
		if sent, dlvd := num(f[2]), num(f[3]); sent == 0 || dlvd*100 < sent*95 {
			t.Errorf("%s delivered %d of %d", f[1], dlvd, sent)
		}
	}
	bars := regexp.MustCompile(`(?m)^\s*\S+ \|#* (\d+)$`).FindAllStringSubmatch(out, -1)
	if len(bars) != 51 {
		t.Fatalf("want 51 buckets of 100 ms in the figure, got %d:\n%s", len(bars), out)
	}
	dip := 0
	for k := 1; k < 50; k++ { // the first bucket ramps up, the last is cut short
		switch n, cut := num(bars[k][1]), k == 20 || k == 21; {
		case cut && n < 80:
			dip++
		case !cut && n != 80:
			t.Errorf("bucket at %d ms: %d voice deliveries, want 80", 100*k, n)
		}
	}
	if dip == 0 {
		t.Error("the fibre cut does not show in the voice deliveries")
	}
}
