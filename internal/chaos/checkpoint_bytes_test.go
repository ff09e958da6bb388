package chaos

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"testing"

	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
)

// castagnoli is the container's own checksum polynomial. A sealed container
// ends in the CRC of everything before it, so the pin below is taken over
// the body alone (the CRC of body+trailer is the same constant for every
// well-formed file).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// TestCheckpointBytesUnchanged pins the checkpoint wire format. The lengths
// and CRC-32Cs were recorded at the commit that made snapshot.Version 3 (the
// "bgp" section became a route table plus indices); a change that is not
// meant to move the format must reproduce them bit for bit. A deliberate
// format change re-records them and the testdata file and bumps Version in
// the same commit. The three rigs with TE intents, and the testdata file,
// were re-recorded once since, format unchanged, when TE re-signalling
// became a delta (DESIGN.md §8.7): their content moved — LSP IDs run on
// instead of restarting at every reconvergence, the journal reports each
// reconvergence's TE outcome instead of an lsp_up per intent — and the
// inter-AS rig, which has no TE, did not.
func TestCheckpointBytesUnchanged(t *testing.T) {
	backbone := func(rig *snapRig, at sim.Time, fp string) []byte {
		rig.b.E.MarkSetup()
		rig.b.Net.RunUntil(at)
		data, err := rig.b.Snapshot(fp)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name string
		data func() []byte
		n    int
		crc  uint32
	}{
		{"snap rig, serial", func() []byte { return backbone(buildSnapRig(t, 0, 4), snapT, "snap-equiv") }, 54804, 0x45ad6596},
		{"snap rig, 8 shards", func() []byte { return backbone(buildSnapRig(t, 8, 4), snapT, "snap-equiv") }, 54886, 0xde9f23b2},
		{"clustered-reflector rig, 1 shard", func() []byte { return backbone(buildReflRig(t, 1, 4), reflSnapT, "refl-snap") }, 77898, 0x0d18f427},
		{"inter-AS rig (options A, B, C), serial", func() []byte {
			rig := buildInterASRig(t, 0, 0)
			rig.x.E.MarkSetup()
			rig.x.Net.RunUntil(interASSnapT)
			data, err := rig.x.Snapshot("interas-snap")
			if err != nil {
				t.Fatal(err)
			}
			return data
		}, 134846, 0x7d94ae5c},
	}
	for _, tc := range cases {
		data := tc.data()
		if got := crc32.Checksum(data[:len(data)-4], castagnoli); len(data) != tc.n || got != tc.crc {
			t.Errorf("%s: %d bytes, CRC-32C %#08x; the recorded format is %d bytes, %#08x",
				tc.name, len(data), got, tc.n, tc.crc)
		}
	}

	// A checkpoint file written by that same commit restores, re-encodes to
	// the same bytes, and finishes the run like the uninterrupted one.
	old, err := os.ReadFile("testdata/snap-serial-v3.mvsnap")
	if err != nil {
		t.Fatal(err)
	}
	rig := buildSnapRig(t, 0, 0)
	if err := rig.b.Restore(old, "snap-equiv"); err != nil {
		t.Fatalf("restore of the recorded checkpoint: %v", err)
	}
	again, err := rig.b.Snapshot("snap-equiv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old, again) {
		t.Fatalf("snapshot(restore(recorded)) differs from the recorded file (%d vs %d bytes)", len(again), len(old))
	}
	rig.b.Net.RunUntil(snapHorizon + sim.Second)
	if got, want := rig.fingerprint(), runUninterrupted(t, 0, 0); got != want {
		t.Errorf("run resumed from the recorded checkpoint diverged; first difference:\n%s", firstDiff(want, got))
	}

	// The file the previous format's last commit wrote is refused by version:
	// its "bgp" section would otherwise be read as the wrong layout.
	retired, err := os.ReadFile("testdata/snap-serial-v2.mvsnap")
	if err != nil {
		t.Fatal(err)
	}
	if err := buildSnapRig(t, 0, 0).b.Restore(retired, "snap-equiv"); !errors.Is(err, snapshot.ErrVersion) {
		t.Errorf("restore of the version-2 checkpoint: err = %v, want ErrVersion", err)
	}
}
