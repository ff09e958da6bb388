package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"testing"
)

// appendEncode is the container writer the Framer replaced, kept as the
// reference: every section is a finished byte string, copied in behind a
// length that was known before the first byte went out.
func appendEncode(version uint64, names []string, payloads [][]byte) []byte {
	b := append([]byte(nil), magic...)
	b = binary.AppendUvarint(b, version)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for i, name := range names {
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
		b = binary.AppendUvarint(b, uint64(len(payloads[i])))
		b = append(b, payloads[i]...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// frame writes the sections through a Framer, each payload a byte at a
// time, as a walk would: the Framer learns a section's length last.
func frame(names []string, payloads [][]byte, sizeHint int) []byte {
	f := NewFramer(len(names), sizeHint)
	for i, name := range names {
		f.Section(name, func(c *Codec) {
			for _, x := range payloads[i] {
				c.w.b = append(c.w.b, x)
			}
		})
	}
	return f.Seal()
}

// TestFramerMatchesRecordedCheckpoint: the sections of the recorded
// version-7 checkpoint, framed in place, are the recorded file byte for
// byte, whatever size the Framer was told to expect — and so is File.Encode
// of the same sections.
func TestFramerMatchesRecordedCheckpoint(t *testing.T) {
	recorded, err := os.ReadFile("../chaos/testdata/snap-serial-v7.mvsnap")
	if err != nil {
		t.Fatal(err)
	}
	file, err := Decode(recorded)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for _, name := range file.Names() {
		p, _ := file.Section(name)
		payloads = append(payloads, p)
	}
	if got := appendEncode(file.Version, file.Names(), payloads); !bytes.Equal(got, recorded) {
		t.Fatalf("the reference writer does not reproduce the recorded checkpoint (%d vs %d bytes)", len(got), len(recorded))
	}
	for _, hint := range []int{0, 1, 200, len(recorded) / 2, len(recorded), 4 * len(recorded)} {
		if got := frame(file.Names(), payloads, hint); !bytes.Equal(got, recorded) {
			t.Errorf("size hint %d: framed in place, the recorded sections are not the recorded checkpoint (%d vs %d bytes)",
				hint, len(got), len(recorded))
		}
	}
	if got := file.Encode(); !bytes.Equal(got, recorded) {
		t.Errorf("File.Encode of the recorded sections is not the recorded checkpoint (%d vs %d bytes)", len(got), len(recorded))
	}
}

// TestFramerLengthCrossesVarintWidth: a section's length prefix is the
// canonical varint whether the bytes kept for it were too few, too many or
// right — at every length where the varint gains a byte, under size hints
// whose own varint is one, two, three and four bytes wide.
func TestFramerLengthCrossesVarintWidth(t *testing.T) {
	var names []string
	var payloads [][]byte
	for _, n := range []int{0, 1, 127, 128, 129, 16383, 16384, 16385, 2097151, 2097152} {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i*7 + n)
		}
		names = append(names, fmt.Sprintf("section of %d", n))
		payloads = append(payloads, p)
	}
	want := appendEncode(Version, names, payloads)
	for _, hint := range []int{0, 127, 128, 16383, 16384, 2097151, 2097152, len(want)} {
		if got := frame(names, payloads, hint); !bytes.Equal(got, want) {
			t.Errorf("size hint %d: %d bytes, differing from the reference writer's %d", hint, len(got), len(want))
		}
	}
	f := NewFile()
	for i, name := range names {
		f.Add(name, payloads[i])
	}
	if got := f.Encode(); !bytes.Equal(got, want) {
		t.Errorf("File.Encode: %d bytes, differing from the reference writer's %d", len(got), len(want))
	}
	if _, err := Decode(want); err != nil {
		t.Errorf("the container does not decode: %v", err)
	}
}

// TestFramerAllocatesOnce: told the size to expect, a Framer allocates
// itself and its buffer, however many sections it frames.
func TestFramerAllocatesOnce(t *testing.T) {
	one := func(c *Codec) { c.U64(300) }
	for _, sections := range []int{1, 64} {
		size := len(frameN(sections, 0, one))
		if got := testing.AllocsPerRun(10, func() { frameN(sections, size, one) }); got != 2 {
			t.Errorf("%d sections: %.0f allocations, want 2", sections, got)
		}
	}
}

func frameN(sections, sizeHint int, walk func(*Codec)) []byte {
	f := NewFramer(sections, sizeHint)
	for i := 0; i < sections; i++ {
		f.Section("s", walk)
	}
	return f.Seal()
}

// TestSealCountsSections: sealing a container short of, or past, the number
// of sections it declared is a caller's bug and panics.
func TestSealCountsSections(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Seal accepted one section where two were declared")
		}
	}()
	f := NewFramer(2, 0)
	f.Section("only", func(*Codec) {})
	f.Seal()
}
