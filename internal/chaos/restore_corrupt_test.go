package chaos

import (
	"errors"
	"testing"

	"mplsvpn/internal/snapshot"
)

// TestRestoreRejectsCorrupt feeds a real mid-run checkpoint through a
// battery of damage — truncation, bit flips, section surgery behind a
// recomputed CRC, scenario skew — and requires every variant to fail with a
// typed error instead of panicking or half-applying state. The restored-onto
// backbone is discarded afterwards (the documented contract for any restore
// failure), so the test only asserts the error channel.
func TestRestoreRejectsCorrupt(t *testing.T) {
	const fp = "snap-equiv"
	rig := buildSnapRig(t, 0, 0)
	rig.b.E.MarkSetup()
	rig.b.Net.RunUntil(snapT)
	data, err := rig.b.Snapshot(fp)
	if err != nil {
		t.Fatal(err)
	}

	typed := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: restore accepted damaged checkpoint", name)
			return
		}
		if !errors.Is(err, snapshot.ErrTruncated) && !errors.Is(err, snapshot.ErrCorrupt) &&
			!errors.Is(err, snapshot.ErrVersion) && !errors.Is(err, snapshot.ErrMismatch) {
			t.Errorf("%s: untyped error %v", name, err)
		}
	}
	restore := func(d []byte, scenario string) error {
		return buildSnapRig(t, 0, 0).b.Restore(d, scenario)
	}

	// Truncations across the whole length, denser near the edges.
	for n := 0; n < len(data); n += 1 + len(data)/97 {
		typed("truncate", restore(data[:n], fp))
	}
	// Bit flips sampled across the file (the CRC trailer catches them all).
	for i := 0; i < len(data); i += 1 + len(data)/101 {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x08
		typed("bitflip", restore(bad, fp))
	}

	// Surgery behind a valid CRC: decode, tamper, re-encode.
	resect := func(mutate func(f *snapshot.File) *snapshot.File) []byte {
		f, err := snapshot.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		return mutate(f).Encode()
	}
	typed("missing section", restore(resect(func(f *snapshot.File) *snapshot.File {
		g := snapshot.NewFile()
		for _, name := range f.Names() {
			if name == "engine" {
				continue
			}
			p, _ := f.Section(name)
			g.Add(name, p)
		}
		return g
	}), fp))
	typed("truncated section", restore(resect(func(f *snapshot.File) *snapshot.File {
		p, _ := f.Section("bgp")
		f.Add("bgp", p[:len(p)/2])
		return f
	}), fp))
	typed("future version", restore(resect(func(f *snapshot.File) *snapshot.File {
		f.Version = snapshot.Version + 1
		return f
	}), fp))

	// A version-1 file (ports saved busy, not busyUntil; evTxDone records)
	// is refused by version, before any section is read as the wrong layout.
	if err := restore(resect(func(f *snapshot.File) *snapshot.File {
		f.Version = 1
		return f
	}), fp); !errors.Is(err, snapshot.ErrVersion) {
		t.Errorf("version 1: err = %v, want ErrVersion", err)
	}

	// Scenario skew: right bytes, wrong world.
	typed("wrong fingerprint", restore(data, "some-other-scenario"))
	sharded := buildSnapRig(t, 8, 4)
	typed("wrong sharding", sharded.b.Restore(data, fp))

	// And the control: the undamaged checkpoint still restores cleanly.
	if err := restore(data, fp); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
}
