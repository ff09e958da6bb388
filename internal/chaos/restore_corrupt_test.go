package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/ospf"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
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
	typed("future version", restore(resect(func(f *snapshot.File) *snapshot.File {
		f.Version = snapshot.Version + 1
		return f
	}), fp))

	// A version-1 file (ports saved busy, not busyUntil; evTxDone records)
	// or version-2 file ("bgp" routes by value under a per-prefix map) is
	// refused by version, before any section is read as the wrong layout.
	for v := uint64(1); v < snapshot.MinVersion; v++ {
		if err := restore(resect(func(f *snapshot.File) *snapshot.File {
			f.Version = v
			return f
		}), fp); !errors.Is(err, snapshot.ErrVersion) {
			t.Errorf("version %d: err = %v, want ErrVersion", v, err)
		}
	}

	// Scenario skew: right bytes, wrong world.
	typed("wrong fingerprint", restore(data, "some-other-scenario"))
	sharded := buildSnapRig(t, 8, 4)
	typed("wrong sharding", sharded.b.Restore(data, fp))

	// And the control: the undamaged checkpoint still restores cleanly.
	if err := restore(data, fp); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}

	// Damage inside every section, behind a valid CRC.
	for _, tg := range restoreTargets(t) {
		tg.sweep(t)
	}
}

// restoreTarget is one restore entry point and a real mid-run checkpoint
// for it: the section sweep and FuzzRestoreSection damage the checkpoint one
// section at a time and feed it to restore, which builds a fresh scenario
// for every attempt (the contract for any failed restore).
type restoreTarget struct {
	name     string
	sections []string
	section  func(name string) []byte
	// corrupt names the sections that are hand-made to be refused as they
	// stand, each with ErrCorrupt: the sweep and the fuzzer then damage them
	// further like any other.
	corrupt []string
	// restore applies the checkpoint with one section's payload replaced.
	restore func(t testing.TB, section string, payload []byte) error
}

// handMade is a section written to be refused: payload stands in for the
// checkpoint's real section sec.
type handMade struct {
	name, sec string
	payload   []byte
}

// container wraps a sealed checkpoint file, and any hand-made variants of
// its sections, as a restoreTarget.
func container(t testing.TB, name string, data []byte, restore func(testing.TB, []byte) error, bad ...handMade) restoreTarget {
	f, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	tg := restoreTarget{name: name, sections: f.Names()}
	variant := map[string]handMade{}
	for _, b := range bad {
		variant[b.name] = b
		tg.sections = append(tg.sections, b.name)
		tg.corrupt = append(tg.corrupt, b.name)
	}
	tg.section = func(sec string) []byte {
		if b, ok := variant[sec]; ok {
			return b.payload
		}
		p, _ := f.Section(sec)
		return p
	}
	tg.restore = func(t testing.TB, sec string, payload []byte) error {
		if b, ok := variant[sec]; ok {
			sec = b.sec
		}
		g := snapshot.NewFile()
		for _, n := range f.Names() {
			p, _ := f.Section(n)
			if n == sec {
				p = payload
			}
			g.Add(n, p)
		}
		return restore(t, g.Encode())
	}
	return tg
}

// labelAboveSpace rewrites the first ILM label of the first router in a
// real "routers" section to one past the 20-bit space. The ILM is a slice
// indexed by label: a restore must refuse the label, not grow to it.
func labelAboveSpace(t testing.TB, data []byte) handMade {
	f, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := f.Section("routers")
	r := snapshot.NewReader(p)
	r.U64() // routers
	r.I64() // the first one's node
	for i := 0; i < 3; i++ {
		r.I64() // its LFIB's forwarding counters
	}
	if bound := r.U64(); bound == 0 || r.Err() != nil {
		t.Fatalf("first router binds %d labels (%v): nothing to rewrite", bound, r.Err())
	}
	at := len(p) - r.Remaining()
	r.U64() // the label
	var w snapshot.Writer
	w.U64(uint64(packet.MaxLabel) + 1)
	bad := append(append(append([]byte(nil), p[:at]...), w.Data()...), p[len(p)-r.Remaining():]...)
	return handMade{"routers: ILM label above the label space", "routers", bad}
}

// outsideDomain hand-writes "igp" and "labels" sections for a backbone whose
// provider routers include n, each well-formed but for one node that is no
// router of the domain (stray is past the end of the graph) in a place the
// loader files by the router's rank: OSPF and LDP hold their per-router state
// in slices, and a restore must refuse the node, not index with it.
func outsideDomain(n topo.NodeID) []handMade {
	const stray = topo.NodeID(1 << 20)
	// A section is a head and then its fields: counts, labels and addresses
	// are unsigned varints, nodes, links, metrics and sequence numbers signed.
	type u = uint64
	section := func(head func(w *snapshot.Writer), fields ...any) []byte {
		var w snapshot.Writer
		head(&w)
		for _, f := range fields {
			switch v := f.(type) {
			case u:
				w.U64(v)
			case int64:
				w.I64(v)
			}
		}
		return w.Data()
	}
	loopback := func(n topo.NodeID) u { return u(ospf.Loopback(n)) }
	igp := func(w *snapshot.Writer) {
		w.I64(0) // LSA messages sent
		w.I64(0) // flood rounds
		w.U64(1) // instances
	}
	ldp := func(w *snapshot.Writer) {
		w.U64(0)     // allocators
		w.Bool(true) // the backbone runs LDP
		for i := 0; i < 4; i++ {
			w.I64(0) // messages, rounds, session flaps, stale bindings
		}
	}
	speaker := func(w *snapshot.Writer) {
		ldp(w)
		w.U64(0) // sessions not up
		w.U64(1) // speakers
		w.I64(int64(n))
	}
	me, out, one := int64(n), int64(stray), int64(1)
	return []handMade{
		{"igp: instance of a node outside the domain", "igp", section(igp, out, one, u(0), u(0))},
		{"igp: LSA origin outside the domain", "igp", section(igp, me, one, u(1), out, out, one, u(0))},
		{"igp: LSA neighbour outside the graph", "igp", section(igp, me, one, u(1), me, me, one, u(1), out, one, int64(0), u(0))},
		{"igp: route to a destination outside the domain", "igp", section(igp, me, one, u(0), u(1), out, int64(0), one, u(1), int64(0))},
		{"labels: session of a node outside the domain", "labels", section(ldp, u(1), out, one)},
		{"labels: speaker at a node outside the domain", "labels", section(ldp, u(0), u(1), out, u(0), u(0))},
		{"labels: local binding for a FEC nobody owns", "labels", section(speaker, u(1), loopback(stray), u(32), u(16))},
		{"labels: bindings learned for a FEC nobody owns", "labels", section(speaker, u(0), u(1), loopback(stray), u(32), u(0))},
		{"labels: binding learned from a node outside the domain", "labels", section(speaker, u(0), u(1), loopback(n), u(32), u(1), out, u(16))},
	}
}

// restoreTargets snapshots the three rigs mid-run: Backbone.Restore on the
// survivability rig, InterAS.Restore on the three-carrier rig (options A, B
// and C), and Mesh.LoadState on the clustered-reflector rig's mesh.
func restoreTargets(t testing.TB) []restoreTarget {
	rig := buildSnapRig(t, 0, 0)
	rig.b.E.MarkSetup()
	rig.b.Net.RunUntil(snapT)
	data, err := rig.b.Snapshot("fp")
	if err != nil {
		t.Fatal(err)
	}
	xrig := buildInterASRig(t, 0, 0)
	xrig.x.E.MarkSetup()
	xrig.x.Net.RunUntil(interASSnapT)
	xdata, err := xrig.x.Snapshot("fp")
	if err != nil {
		t.Fatal(err)
	}
	refl := buildReflRig(t, 0, 0)
	refl.b.E.MarkSetup()
	refl.b.Net.RunUntil(reflSnapT)
	var mesh snapshot.Writer
	refl.b.BGP.SaveState(&mesh)
	meshes, badMeshes := corruptMeshSections(refl.b.BGP.Clusters()[0].Clients[0])
	meshes["mesh"] = mesh.Data()

	return []restoreTarget{
		container(t, "Backbone.Restore", data, func(t testing.TB, d []byte) error { return buildSnapRig(t, 0, 0).b.Restore(d, "fp") },
			append([]handMade{labelAboveSpace(t, data)}, outsideDomain(rig.b.Router("P1").Node)...)...),
		container(t, "InterAS.Restore", xdata, func(t testing.TB, d []byte) error { return buildInterASRig(t, 0, 0).x.Restore(d, "fp") }),
		{
			name:     "Mesh.LoadState",
			sections: append([]string{"mesh"}, badMeshes...),
			section:  func(sec string) []byte { return meshes[sec] },
			corrupt:  badMeshes,
			restore: func(t testing.TB, _ string, payload []byte) error {
				return buildReflRig(t, 0, 0).b.BGP.LoadState(snapshot.NewReader(payload))
			},
		},
	}
}

// corruptMeshSections hand-writes four "bgp" sections for a mesh that has
// speaker n, each well-formed but for one defect no saver produces: a route
// index past the table, an adj-RIB-in out of prefix order, one that holds a
// (prefix, origin) twice, and a route table that declares the most routes
// its remaining bytes admit and holds two. The layout written here is the
// version-3 one bgp.Mesh.State walks.
func corruptMeshSections(n topo.NodeID) (sections map[string][]byte, names []string) {
	// table writes the section up to the end of its route table, which
	// declares count routes and holds one per origin.
	table := func(w *snapshot.Writer, count int, origins []topo.NodeID, thirds []uint32) {
		c := snapshot.Saver(w)
		for i := 0; i < 8; i++ {
			w.I64(0) // mesh counters
		}
		w.U64(0) // session states
		w.U64(0) // newly suppressed prefixes
		w.U64(uint64(count))
		for i, origin := range origins {
			p := addr.VPNPrefix{Prefix: addr.NewPrefix(addr.IPv4(0x0a000000+thirds[i]<<8), 24)}
			addr.VPNPrefixState(c, &p)
			w.U64(1)  // next hop
			w.U64(16) // label
			w.U64(0)  // route targets
			w.I64(100)
			w.I64(0)
			w.I64(int64(origin))
			w.I64(0) // originator
			w.U64(0) // cluster list
		}
	}
	section := func(origins []topo.NodeID, thirds []uint32, paths ...uint64) []byte {
		var w snapshot.Writer
		table(&w, len(origins), origins, thirds)
		w.U64(1) // speakers
		w.I64(int64(n))
		w.I64(0) // received
		w.I64(0) // retained
		w.U64(0) // exports
		w.U64(uint64(len(paths)))
		for _, k := range paths {
			w.U64(k)
		}
		for i := 0; i < 4; i++ {
			w.U64(0) // stale marks, damping, previous round's prefixes, pending flaps
		}
		return w.Data()
	}
	// A thousand routes declared, each admitted at its 12-byte minimum; two
	// present, and behind them bytes that are no varint. The count passes,
	// so what bounds the load is what it decodes (see also bgp's
	// TestLoadStateAllocatesWhatItDecodes).
	var short snapshot.Writer
	table(&short, 1000, []topo.NodeID{1, 2}, []uint32{1, 2})
	sections = map[string][]byte{
		"mesh: route index past the table":       section([]topo.NodeID{1, 2}, []uint32{1, 2}, 0, 2),
		"mesh: paths out of prefix order":        section([]topo.NodeID{1, 2}, []uint32{2, 1}, 0, 1),
		"mesh: repeated (prefix, origin)":        section([]topo.NodeID{1, 1}, []uint32{1, 1}, 0, 1),
		"mesh: route count past the routes held": append(short.Data(), bytes.Repeat([]byte{0xff}, 1000*12)...),
	}
	for name := range sections {
		names = append(names, name)
	}
	sort.Strings(names) // the fuzzer's corpus addresses sections by position
	return sections, names
}

// allocatedBytes is the process's cumulative heap allocation.
func allocatedBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// attempt restores one damaged variant and requires a typed refusal or a
// clean accept — never a panic, and never more allocation than budget
// bytes, which the caller derives from what the pristine restore costs.
func (tg restoreTarget) attempt(t testing.TB, what, section string, payload []byte, budget uint64) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s, section %q, %s: panic: %v\n%s", tg.name, section, what, r, debug.Stack())
		}
	}()
	before := allocatedBytes()
	err := tg.restore(t, section, payload)
	if err != nil && !errors.Is(err, snapshot.ErrTruncated) && !errors.Is(err, snapshot.ErrCorrupt) &&
		!errors.Is(err, snapshot.ErrVersion) && !errors.Is(err, snapshot.ErrMismatch) {
		t.Errorf("%s, section %q, %s: untyped error %v", tg.name, section, what, err)
	}
	if got := allocatedBytes() - before; budget > 0 && got > budget {
		t.Errorf("%s, section %q, %s: restore allocated %d bytes, budget %d", tg.name, section, what, got, budget)
	}
}

// sweep truncates every section at every offset (at 200 evenly spaced ones
// above 4 KB) and rewrites sampled single bytes three ways: all bits
// flipped, the low bit flipped, and the varint continuation bit set. Short
// mode thins the offsets; the fuzz target covers what the samples skip.
func (tg restoreTarget) sweep(t *testing.T) {
	before := allocatedBytes()
	if err := tg.restore(t, tg.sections[0], tg.section(tg.sections[0])); err != nil {
		t.Fatalf("%s: pristine checkpoint rejected: %v", tg.name, err)
	}
	// Scenario build and restore of the real state, twice over, plus slack
	// for the runtime's own bookkeeping: a crafted count that drove an
	// allocation the input does not justify lands far beyond it.
	budget := 2*(allocatedBytes()-before) + 1<<20

	for _, sec := range tg.corrupt {
		if err := tg.restore(t, sec, tg.section(sec)); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s, section %q: err = %v, want ErrCorrupt", tg.name, sec, err)
		}
	}
	for _, sec := range tg.sections {
		p := tg.section(sec)
		step := 1
		if len(p) >= 4096 {
			step = len(p) / 200
		}
		if testing.Short() {
			step *= 11
		}
		for n := 0; n < len(p); n += step {
			tg.attempt(t, fmt.Sprintf("truncated to %d of %d bytes", n, len(p)), sec, p[:n], budget)
		}
		step = 1 + len(p)/48
		if testing.Short() {
			step *= 5
		}
		for i := 0; i < len(p); i += step {
			for _, b := range []byte{^p[i], p[i] ^ 0x01, p[i] | 0x80} {
				if b == p[i] {
					continue
				}
				bad := append([]byte(nil), p...)
				bad[i] = b
				tg.attempt(t, fmt.Sprintf("byte %d: %#02x -> %#02x", i, p[i], b), sec, bad, budget)
			}
		}
	}
}

// FuzzRestoreSection is the sweep's mutator under the fuzzer: pick a
// target, a section, an offset and an edit, seeded with the real
// checkpoints. Same contract as attempt.
func FuzzRestoreSection(f *testing.F) {
	targets := restoreTargets(f)
	for tg := range targets {
		for sec := range targets[tg].sections {
			f.Add(uint8(tg), uint8(sec), uint32(0), uint8(0), uint8(0xff))
			f.Add(uint8(tg), uint8(sec), uint32(7), uint8(1), uint8(0x80))
			f.Add(uint8(tg), uint8(sec), uint32(3), uint8(2), uint8(0))
		}
	}
	f.Fuzz(func(t *testing.T, target, section uint8, off uint32, op, val uint8) {
		tg := targets[int(target)%len(targets)]
		sec := tg.sections[int(section)%len(tg.sections)]
		p := append([]byte(nil), tg.section(sec)...)
		if len(p) == 0 {
			return
		}
		i := int(off) % len(p)
		switch op % 3 {
		case 0:
			p[i] = val
		case 1:
			p = p[:i]
		case 2: // splice a byte in, shifting the rest
			p = append(p[:i], append([]byte{val}, p[i:]...)...)
		}
		tg.attempt(t, fmt.Sprintf("op %d at %d val %#02x", op%3, i, val), sec, p, 0)
	})
}
