package core

import (
	"fmt"
	"testing"

	"mplsvpn/internal/snapshot"
)

// TestSnapshotAllocationBudget pins what writing a checkpoint allocates once
// the backbone has written one before: the container's buffer and its
// Framer, whatever the number of sections, and then only what the walks
// themselves take (the section table's closures, a sorted key list per map).
// The first figure is the contract — no Writer per section, no regrowth from
// nothing, no second copy — and the second is recorded so that a walk which
// starts allocating per element shows up here and not in a profile.
func TestSnapshotAllocationBudget(t *testing.T) {
	walk := func(c *snapshot.Codec) { c.U64(1 << 20) }
	for _, n := range []int{1, 14, 200} {
		secs := make([]section, n)
		for i := range secs {
			secs[i] = section{name: fmt.Sprintf("section-%d", i), walk: walk}
		}
		size := len(encodeSections(secs, 0))
		if got := testing.AllocsPerRun(10, func() { encodeSections(secs, size) }); got != 2 {
			t.Errorf("%d sections: writing the container took %.0f allocations, want 2 (the Framer, the buffer)", n, got)
		}
	}

	b := reflectedBackbone()
	b.E.MarkSetup()
	first, err := b.Snapshot("budget")
	if err != nil {
		t.Fatal(err)
	}
	var second []byte
	got := testing.AllocsPerRun(10, func() { second, _ = b.Snapshot("budget") })
	if string(second) != string(first) {
		t.Fatal("the second snapshot of an idle backbone differs from the first")
	}
	// Recorded when the container moved to one buffer framed in place.
	const want = 291
	if got != want {
		t.Errorf("the second Snapshot took %.0f allocations, recorded %d: a walk allocates differently (re-record if meant)", got, want)
	}
}
