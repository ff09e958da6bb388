package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	var w Writer
	w.U64(0)
	w.U64(1)
	w.U64(math.MaxUint64)
	w.I64(0)
	w.I64(-1)
	w.I64(math.MinInt64)
	w.I64(math.MaxInt64)
	w.F64(0)
	w.F64(-2.5)
	w.F64(math.Inf(1))
	w.Bool(true)
	w.Bool(false)
	w.Bytes([]byte{1, 2, 3})
	w.Bytes(nil)
	w.Str("hello")
	w.Str("")

	r := NewReader(w.Data())
	checks := []struct {
		name string
		ok   bool
	}{
		{"u64 0", r.U64() == 0},
		{"u64 1", r.U64() == 1},
		{"u64 max", r.U64() == math.MaxUint64},
		{"i64 0", r.I64() == 0},
		{"i64 -1", r.I64() == -1},
		{"i64 min", r.I64() == math.MinInt64},
		{"i64 max", r.I64() == math.MaxInt64},
		{"f64 0", r.F64() == 0},
		{"f64 -2.5", r.F64() == -2.5},
		{"f64 +inf", math.IsInf(r.F64(), 1)},
		{"bool true", r.Bool()},
		{"bool false", !r.Bool()},
		{"bytes", string(r.Bytes()) == "\x01\x02\x03"},
		{"bytes empty", len(r.Bytes()) == 0},
		{"str", r.Str() == "hello"},
		{"str empty", r.Str() == ""},
	}
	for _, c := range checks {
		if !c.ok {
			t.Errorf("%s did not round-trip", c.name)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Errorf("%d bytes left over", r.Remaining())
	}
}

// F64 must preserve the exact bit pattern, NaN payloads included — a
// restored RNG or token bucket may never drift by a ULP.
func TestF64BitExact(t *testing.T) {
	nan := math.Float64frombits(0x7ff8dead_beef0001)
	var w Writer
	w.F64(nan)
	r := NewReader(w.Data())
	if got := math.Float64bits(r.F64()); got != 0x7ff8dead_beef0001 {
		t.Errorf("NaN payload lost: %016x", got)
	}
}

// The reader's error is sticky: after the first failure, every subsequent
// read returns a zero value and Err keeps reporting the first cause.
func TestReaderStickyError(t *testing.T) {
	r := NewReader(nil)
	if v := r.U64(); v != 0 {
		t.Errorf("U64 on empty input = %d", v)
	}
	first := r.Err()
	if !errors.Is(first, ErrTruncated) {
		t.Fatalf("first error = %v, want ErrTruncated", first)
	}
	_ = r.I64()
	_ = r.F64()
	_ = r.Bool()
	_ = r.Bytes()
	_ = r.Count(1)
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("error not sticky: %v", r.Err())
	}
}

func TestReaderTruncation(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		read func(r *Reader)
	}{
		{"uvarint continuation", []byte{0x80}, func(r *Reader) { r.U64() }},
		{"varint continuation", []byte{0x80}, func(r *Reader) { r.I64() }},
		{"float", []byte{1, 2, 3}, func(r *Reader) { r.F64() }},
		{"bool", nil, func(r *Reader) { r.Bool() }},
		{"bytes body", []byte{5, 'a', 'b'}, func(r *Reader) { r.Bytes() }},
	}
	for _, c := range cases {
		r := NewReader(c.data)
		c.read(r)
		if !errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", c.name, r.Err())
		}
	}
}

func TestReaderCorrupt(t *testing.T) {
	// An 11-byte all-continuation varint overflows.
	over := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	r := NewReader(over)
	r.U64()
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("uvarint overflow: err = %v, want ErrCorrupt", r.Err())
	}
	r = NewReader([]byte{2})
	r.Bool()
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("bool byte 2: err = %v, want ErrCorrupt", r.Err())
	}
}

// Count is the allocation guard: a declared element count that could not
// possibly fit in the remaining bytes is corrupt, so a crafted header can
// never drive make([]T, huge).
func TestCountGuard(t *testing.T) {
	var w Writer
	w.U64(1 << 40)
	r := NewReader(w.Data())
	if n := r.Count(8); n != 0 {
		t.Errorf("Count = %d on absurd input", n)
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", r.Err())
	}

	// A plausible count passes.
	w = Writer{}
	w.U64(3)
	w.Bool(true)
	w.Bool(false)
	w.Bool(true)
	r = NewReader(w.Data())
	if n := r.Count(1); n != 3 {
		t.Errorf("Count = %d, want 3", n)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestContainerRoundTrip(t *testing.T) {
	f := NewFile()
	f.Add("alpha", []byte{1, 2, 3})
	f.Add("beta", nil)
	f.Add("alpha", []byte{9}) // replace keeps position
	data := f.Encode()

	g, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.Version != Version {
		t.Errorf("version = %d", g.Version)
	}
	names := g.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Errorf("names = %v", names)
	}
	a, ok := g.Section("alpha")
	if !ok || string(a) != "\x09" {
		t.Errorf("alpha = %v, %v", a, ok)
	}
	if _, ok := g.Section("gamma"); ok {
		t.Error("phantom section")
	}
}

func TestContainerRejectsDamage(t *testing.T) {
	f := NewFile()
	f.Add("s", []byte("payload"))
	good := f.Encode()

	// Every truncation of a valid file fails with a typed error.
	for n := 0; n < len(good); n++ {
		if _, err := Decode(good[:n]); err == nil {
			t.Fatalf("Decode accepted %d-byte truncation", n)
		} else if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d: untyped error %v", n, err)
		}
	}
	// Every single-bit flip fails (CRC32C catches them all).
	for i := 0; i < len(good); i++ {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("Decode accepted bit flip at byte %d", i)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: error %v, want ErrCorrupt", i, err)
		}
	}
}

// reseal recomputes the CRC trailer over a tampered body, so tests can reach
// the structural checks behind the integrity check.
func reseal(body []byte) []byte {
	sum := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
	return binary.LittleEndian.AppendUint32(body, sum)
}

func TestContainerRejectsFutureVersion(t *testing.T) {
	var w Writer
	w.b = append(w.b, magic...)
	w.U64(Version + 1)
	w.U64(0)
	if _, err := Decode(reseal(w.Data())); !errors.Is(err, ErrVersion) {
		t.Errorf("future version: err = %v, want ErrVersion", err)
	}
}

// Version 1 laid the "net" section out differently, with nothing in the bytes
// to tell the two apart: it is refused whole, never parsed as version 2.
func TestContainerRejectsRetiredVersion(t *testing.T) {
	for v := uint64(0); v < MinVersion; v++ {
		var w Writer
		w.b = append(w.b, magic...)
		w.U64(v)
		w.U64(0)
		if _, err := Decode(reseal(w.Data())); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: err = %v, want ErrVersion", v, err)
		}
	}
}

func TestContainerRejectsDuplicateSection(t *testing.T) {
	var w Writer
	w.b = append(w.b, magic...)
	w.U64(Version)
	w.U64(2)
	w.Str("dup")
	w.Bytes([]byte{1})
	w.Str("dup")
	w.Bytes([]byte{2})
	if _, err := Decode(reseal(w.Data())); !errors.Is(err, ErrCorrupt) {
		t.Errorf("duplicate section: err = %v, want ErrCorrupt", err)
	}
}

func TestContainerRejectsTrailingBytes(t *testing.T) {
	var w Writer
	w.b = append(w.b, magic...)
	w.U64(Version)
	w.U64(0)
	w.b = append(w.b, 0xAA)
	if _, err := Decode(reseal(w.Data())); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes: err = %v, want ErrCorrupt", err)
	}
}
