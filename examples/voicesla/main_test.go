package main

import (
	"regexp"
	"strconv"
	"testing"

	"mplsvpn/internal/testio"
)

// TestQoSBeatsBestEffort runs the example and asserts its claim: through
// the same overloaded bottleneck, the QoS architecture's voice has a lower
// p99 delay and less loss than the best-effort run's.
func TestQoSBeatsBestEffort(t *testing.T) {
	out := testio.StdoutOf(t, main)
	voice := regexp.MustCompile(`(?m)^voice .* loss=\s*([0-9.]+)% .* p99=\s*([0-9.]+)ms`).FindAllStringSubmatch(out, -1)
	if len(voice) != 2 {
		t.Fatalf("want a voice line per run (best effort, then QoS), got %d:\n%s", len(voice), out)
	}
	num := func(s string) float64 {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	beLoss, beP99 := num(voice[0][1]), num(voice[0][2])
	qosLoss, qosP99 := num(voice[1][1]), num(voice[1][2])
	if qosP99 >= beP99 || qosLoss >= beLoss {
		t.Fatalf("QoS voice p99 %.2f ms, loss %.2f %%; best effort p99 %.2f ms, loss %.2f %%: want both lower",
			qosP99, qosLoss, beP99, beLoss)
	}
}
