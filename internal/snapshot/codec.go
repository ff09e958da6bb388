// Package snapshot implements versioned, forward-compatible binary
// serialization for simulation checkpoints: a primitive codec
// (varint/zigzag/length-prefixed), the bidirectional Codec that state walks
// are written against, a section-framed container with a CRC32 integrity
// trailer, an atomic on-disk checkpoint store with retention, and a
// bisector that localizes failures by partial replays between checkpoints.
//
// A checkpointed type describes its fields once, as a walk over a *Codec
// (walk.go): each leaf call appends the field it points at when the Codec
// wraps a Writer and reads into it when the Codec wraps a Reader, and the
// Slice/Map/Set/Keyed/Overlay helpers own counting, key order and
// allocation. A container is written by a Framer: every section's walk
// appends to the one buffer the finished checkpoint is, sized up front from
// the checkpoint before it. Writer and Reader stay usable on their own;
// DESIGN.md §9 is the format reference.
//
// The decoder is hostile-input safe by construction: every read is bounds
// checked, element counts are validated against the bytes that remain, and
// malformed input surfaces as a typed error (ErrTruncated, ErrCorrupt,
// ErrVersion) — never a panic and never an out-of-bounds allocation. That
// contract is what lets a restore parse an entire checkpoint into plain
// data before touching any live state.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
)

// Typed decode failures. Restores must treat any of them as "this file does
// not exist": no partial state may have been applied.
var (
	// ErrTruncated reports input that ends before a declared field.
	ErrTruncated = errors.New("snapshot: truncated input")
	// ErrCorrupt reports structurally invalid input: bad magic, a CRC
	// mismatch, a malformed varint, or a length that exceeds the input.
	ErrCorrupt = errors.New("snapshot: corrupt input")
	// ErrVersion reports a checkpoint whose format version this decoder does
	// not read: newer than Version or older than MinVersion.
	ErrVersion = errors.New("snapshot: unsupported version")
	// ErrMismatch reports a checkpoint that decoded cleanly but does not
	// belong to the scenario being restored (fingerprint or shape skew).
	ErrMismatch = errors.New("snapshot: checkpoint does not match scenario")
)

// Writer encodes primitives into a byte buffer that grows as needed. The
// zero value is ready to use; a caller that knows roughly what it is about
// to write calls Grow first and pays for one allocation.
type Writer struct {
	b []byte
}

// Data returns the encoded bytes.
func (w *Writer) Data() []byte { return w.b }

// Len returns the number of bytes encoded so far.
func (w *Writer) Len() int { return len(w.b) }

// Grow makes room for n more bytes, so that writing them allocates nothing.
func (w *Writer) Grow(n int) { w.b = slices.Grow(w.b, n) }

// Reset empties the buffer and keeps its capacity for what is written next.
func (w *Writer) Reset() { w.b = w.b[:0] }

// reserve appends width bytes for a length not known yet and returns where
// they start: the payload is written next, and frame fills the length in.
func (w *Writer) reserve(width int) int {
	at := len(w.b)
	w.b = slices.Grow(w.b, width)[:at+width]
	return at
}

// frame turns everything written since reserve(width) returned at into a
// length-prefixed byte string, exactly as Bytes would have written it. The
// prefix is the canonical varint: when it needs other than the width bytes
// kept for it, the payload moves to meet it — a prefix padded to a fixed
// width would decode to the same length and be a different checkpoint.
func (w *Writer) frame(at, width int) {
	n := len(w.b) - at - width
	need := uvarintLen(uint64(n))
	if need != width {
		payload := w.b[at+width:]
		w.b = slices.Grow(w.b, max(need-width, 0))[:at+need+n]
		copy(w.b[at+need:], payload)
	}
	binary.PutUvarint(w.b[at:], uint64(n))
}

// uvarintLen is the number of bytes U64 writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// U64 appends an unsigned varint.
func (w *Writer) U64(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

// I64 appends a zigzag-encoded signed varint.
func (w *Writer) I64(v int64) { w.b = binary.AppendVarint(w.b, v) }

// F64 appends a float64 as its IEEE 754 bit pattern (fixed 8 bytes), so the
// value round-trips exactly, NaN payloads included.
func (w *Writer) F64(v float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
}

// Bool appends a single 0/1 byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

// Bytes appends a length-prefixed byte string.
func (w *Writer) Bytes(p []byte) {
	w.U64(uint64(len(p)))
	w.b = append(w.b, p...)
}

// Str appends a length-prefixed string.
func (w *Writer) Str(s string) {
	w.U64(uint64(len(s)))
	w.b = append(w.b, s...)
}

// Reader decodes primitives with a sticky error: after the first failure
// every read returns a zero value and Err reports the cause. Callers batch
// reads and check Err once per record, keeping decode loops linear and
// panic-free.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{b: data} }

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) fail(err error, what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", err, what, r.off)
	}
}

// U64 decodes an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrTruncated, "uvarint")
		} else {
			r.fail(ErrCorrupt, "uvarint overflow")
		}
		return 0
	}
	r.off += n
	return v
}

// I64 decodes a zigzag-encoded signed varint.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrTruncated, "varint")
		} else {
			r.fail(ErrCorrupt, "varint overflow")
		}
		return 0
	}
	r.off += n
	return v
}

// F64 decodes a fixed 8-byte IEEE 754 value.
func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail(ErrTruncated, "float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// Bool decodes a single byte; any value other than 0 or 1 is corrupt.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.Remaining() < 1 {
		r.fail(ErrTruncated, "bool")
		return false
	}
	v := r.b[r.off]
	r.off++
	if v > 1 {
		r.fail(ErrCorrupt, "bool")
		return false
	}
	return v == 1
}

// Bytes decodes a length-prefixed byte string, aliasing the input buffer.
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail(ErrTruncated, "bytes body")
		return nil
	}
	p := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return p
}

// Str decodes a length-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Count decodes an element count and validates it against the bytes that
// remain (every element costs at least minElemBytes), so a crafted count
// can never drive an oversized allocation or a runaway loop.
func (r *Reader) Count(minElemBytes int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n > uint64(r.Remaining()/minElemBytes) {
		r.fail(ErrCorrupt, "element count exceeds input")
		return 0
	}
	return int(n)
}

// Container format: magic, format version, named length-prefixed sections,
// CRC32 (Castagnoli) trailer over everything before it.

// Version is the current container format version. Decoders accept any file
// whose version is in [MinVersion, Version] (older fields read with defaults,
// unknown sections ignored by name lookup) and refuse the rest with
// ErrVersion.
//
//	1  first format.
//	2  "net" section: a port records busyUntil and its wake-pending flag in
//	   place of busy, in-flight events lose the size field, evTxDone is gone
//	   and the event kinds are renumbered. The two layouts cannot be told
//	   apart from the bytes, so version 1 is refused rather than mis-parsed.
//	3  "bgp" section: a table of the distinct routes, written once by value,
//	   then each speaker's exports and adj-RIB-in as indices into it (sorted
//	   by prefix), in place of every entry by value under a per-prefix map.
//	   Version 2 is refused for the same reason version 1 is.
//	4  "flows", "sources" and "telemetry" sections: a latency distribution is
//	   its exact count, sum, min and max and a window of log-linear bucket
//	   counts, in place of every observation and a decimation state.
//	   Version 3 is refused for the same reason.
//	5  "pending" section: the list of setup events a rebuild re-creates is
//	   gone; every pending event is a control timer or a registered action,
//	   and a control timer may be a periodic tick (interval and last instant
//	   in its operands). Version 4 is refused for the same reason.
//	6  every section walks the structures the program holds: "bgp" writes
//	   the attribute sets, then the route table as (prefix, label, set),
//	   then the speakers' runs; a VRF writes its site list once and a route
//	   its index into it; a hybrid scheduler is the WFQ it is; OSPF and LDP
//	   tables indexed by rank or FEC write positions, not node IDs and
//	   prefixes; an NHLFE's operation is unsigned. Version 5 is refused for
//	   the same reason.
//	7  "bgp" writes a speaker's exports and adj-RIB-in as runs of
//	   consecutive handles where that is shorter than a varint per handle,
//	   behind a mode bit in the count. Version 6 is refused for the same
//	   reason.
const (
	Version    = 7
	MinVersion = 7
)

var magic = []byte{'M', 'V', 'S', 'N'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C of p, the checksum a container's trailer carries.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, crcTable) }

// File is a decoded (or under-construction) checkpoint container.
type File struct {
	Version  uint64
	names    []string
	sections map[string][]byte
}

// NewFile returns an empty container at the current version.
func NewFile() *File {
	return &File{Version: Version, sections: make(map[string][]byte)}
}

// Add appends a named section. Adding a name twice replaces the payload but
// keeps the original position.
func (f *File) Add(name string, data []byte) {
	if _, ok := f.sections[name]; !ok {
		f.names = append(f.names, name)
	}
	f.sections[name] = data
}

// Section returns a named section's payload.
func (f *File) Section(name string) ([]byte, bool) {
	p, ok := f.sections[name]
	return p, ok
}

// Names returns the section names in file order.
func (f *File) Names() []string { return f.names }

// Encode serializes the container: magic, version, section count, sections,
// CRC32C trailer.
func (f *File) Encode() []byte {
	size := 0
	for _, name := range f.names {
		size += len(name) + len(f.sections[name]) + 2*binary.MaxVarintLen32
	}
	fr := newFramer(f.Version, len(f.names), size)
	for _, name := range f.names {
		fr.Section(name, func(c *Codec) { c.w.b = append(c.w.b, f.sections[name]...) })
	}
	return fr.Seal()
}

// Framer writes a container in place: one buffer holds the header, every
// section as its walk appends it, and the trailer, and that buffer is the
// checkpoint. A section's length is not known until its walk returns, so
// Section keeps room for the prefix, lets the walk write behind it, and
// frames the payload where it lies.
type Framer struct {
	w     Writer
	c     Codec // the Saver every section's walk runs over
	left  int   // sections declared and not yet written
	width int   // bytes kept for a section's length prefix
}

// NewFramer starts a container of the current version that will hold the
// given number of sections. sizeHint is the caller's guess at the finished
// length — the length of its previous checkpoint, 0 for none — and costs
// nothing but time when wrong: the buffer starts at that plus a thirty-
// second, since state grows a little between checkpoints and whoever keeps
// the checkpoint keeps the slack, and grows like any Writer past it.
func NewFramer(sections, sizeHint int) *Framer { return newFramer(Version, sections, sizeHint) }

func newFramer(version uint64, sections, sizeHint int) *Framer {
	// No section of a checkpoint the hinted size has a longer length than
	// the hint itself, so the largest ones are framed without moving.
	f := &Framer{left: sections, width: uvarintLen(uint64(sizeHint))}
	f.c.w = &f.w
	f.w.b = append(make([]byte, 0, sizeHint+sizeHint/32+64), magic...)
	f.w.U64(version)
	f.w.U64(uint64(sections))
	return f
}

// Section appends one named section, whose payload is what walk writes.
func (f *Framer) Section(name string, walk func(*Codec)) {
	f.left--
	f.w.Str(name)
	at := f.w.reserve(f.width)
	walk(&f.c)
	f.w.frame(at, f.width)
}

// Seal appends the CRC32C trailer and returns the finished container. The
// Framer keeps nothing of it. Sealing with other than the declared number of
// sections written is a bug in the caller, and panics.
func (f *Framer) Seal() []byte {
	if f.left != 0 {
		panic(fmt.Sprintf("snapshot: container sealed %d sections away from its declared count", f.left))
	}
	b := binary.LittleEndian.AppendUint32(f.w.b, Checksum(f.w.b))
	f.w.b = nil
	return b
}

// Decode parses and integrity-checks a container. Any structural problem
// returns a typed error; no partially decoded File escapes.
func Decode(data []byte) (*File, error) {
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("%w: %d bytes is below the minimum container size", ErrTruncated, len(data))
	}
	for i, m := range magic {
		if data[i] != m {
			return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
		}
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(trailer)
	if got := Checksum(body); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	r := NewReader(body[len(magic):])
	f := &File{sections: make(map[string][]byte)}
	f.Version = r.U64()
	if r.Err() == nil && (f.Version < MinVersion || f.Version > Version) {
		return nil, fmt.Errorf("%w: file version %d, decoder supports %d..%d", ErrVersion, f.Version, MinVersion, Version)
	}
	n := r.Count(2) // a section costs at least an empty name + empty body
	for i := 0; i < n && r.Err() == nil; i++ {
		name := r.Str()
		payload := r.Bytes()
		if r.Err() != nil {
			break
		}
		if _, dup := f.sections[name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, name)
		}
		f.names = append(f.names, name)
		f.sections[name] = payload
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after last section", ErrCorrupt, r.Remaining())
	}
	return f, nil
}
