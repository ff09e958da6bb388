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
// and CRC-32Cs were recorded at the commit that made snapshot.Version 7 (a
// BGP speaker's exports and adj-RIB-in as runs of handles); a change that
// is not meant to move the format
// must reproduce them bit for bit. A deliberate format
// change re-records them and the testdata file and bumps Version in the same
// commit.
func TestCheckpointBytesUnchanged(t *testing.T) {
	backbone := func(rig *snapRig, at sim.Time, fp string) []byte {
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
		{"snap rig, serial", func() []byte { return backbone(buildSnapRig(t, 0, 4), snapT, "snap-equiv") }, 32560, 0x556b1095},
		{"snap rig, 8 shards", func() []byte { return backbone(buildSnapRig(t, 8, 4), snapT, "snap-equiv") }, 32641, 0x12716161},
		{"clustered-reflector rig, 1 shard", func() []byte { return backbone(buildReflRig(t, 1, 4), reflSnapT, "refl-snap") }, 59470, 0x5f9329ea},
		{"inter-AS rig (options A, B, C), serial", func() []byte {
			rig := buildInterASRig(t, 0, 0)
			rig.x.Net.RunUntil(interASSnapT)
			data, err := rig.x.Snapshot("interas-snap")
			if err != nil {
				t.Fatal(err)
			}
			return data
		}, 117971, 0x79a76d4e},
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
	old, err := os.ReadFile("testdata/snap-serial-v7.mvsnap")
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
	// its sections would otherwise be read as the wrong layout.
	retired, err := os.ReadFile("testdata/snap-serial-v6.mvsnap")
	if err != nil {
		t.Fatal(err)
	}
	if err := buildSnapRig(t, 0, 0).b.Restore(retired, "snap-equiv"); !errors.Is(err, snapshot.ErrVersion) {
		t.Errorf("restore of the version-6 checkpoint: err = %v, want ErrVersion", err)
	}
}
