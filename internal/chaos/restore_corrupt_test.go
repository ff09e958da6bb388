package chaos

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"testing"

	"mplsvpn/internal/addr"
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

	// A file of an earlier version — ports saved busy (1), "bgp" routes by
	// value under a per-prefix map (2), every latency observation (3), the
	// list of setup events (4), site names, node IDs and the hybrid's two
	// tiers (5) — is refused by version, before any section is read as the
	// wrong layout.
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
	// refused maps the sections that are hand-made to be refused as they
	// stand to the error each is refused with: the sweep and the fuzzer
	// then damage them further like any other.
	refused map[string]error
	// restore applies the checkpoint with one section's payload replaced.
	restore func(t testing.TB, section string, payload []byte) error
}

// handMade is a section written to be refused with want (ErrCorrupt when
// nil): payload stands in for the checkpoint's real section sec.
type handMade struct {
	name, sec string
	payload   []byte
	want      error
}

// container wraps a sealed checkpoint file, and any hand-made variants of
// its sections, as a restoreTarget.
func container(t testing.TB, name string, data []byte, restore func(testing.TB, []byte) error, bad ...handMade) restoreTarget {
	f, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	tg := restoreTarget{name: name, sections: f.Names(), refused: map[string]error{}}
	variant := map[string]handMade{}
	for _, b := range bad {
		variant[b.name] = b
		tg.sections = append(tg.sections, b.name)
		tg.refused[b.name] = cmp.Or(b.want, snapshot.ErrCorrupt)
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
	return handMade{name: "routers: ILM label above the label space", sec: "routers", payload: bad}
}

// siteIndexPastSlots hand-writes a "routers" section whose one router, at
// node n, holds a VRF with no site list and a local route naming site 0.
func siteIndexPastSlots(n topo.NodeID) handMade {
	var w snapshot.Writer
	c := snapshot.Saver(&w)
	w.U64(1) // routers
	w.I64(int64(n))
	for i := 0; i < 3; i++ {
		w.I64(0) // forwarding counters
	}
	w.U64(0)      // ILM
	w.U64(0)      // FTN
	w.U64(0)      // IP table
	w.Bool(false) // no local prefixes
	w.U64(1)      // VRFs
	w.Str("acme")
	w.I64(int64(n))
	rd := addr.RouteDistinguisher{Admin: 65000, Assigned: 1}
	addr.RDState(c, &rd)
	w.U64(0)  // import targets
	w.U64(0)  // export targets
	w.I64(-1) // SLA class
	w.U64(0)  // site list
	w.U64(1)  // routes
	p := addr.MustParsePrefix("10.1.0.0/16")
	addr.PrefixState(c, &p)
	w.Bool(true)  // local
	w.U64(0)      // site
	w.I64(0)      // egress PE
	w.U64(0)      // next hop
	w.U64(0)      // VPN label
	w.Bool(false) // external
	return handMade{name: "routers: local route naming a site past the VRF's site list", sec: "routers", payload: w.Data()}
}

// hybridTaggedWFQ rewrites the scheduler kind tag of the first port in a
// real "net" section, a hybrid, to WFQ's: the record is then another
// scheduler's, and a restore must refuse it as the wrong scenario.
func hybridTaggedWFQ(t testing.TB, data []byte) handMade {
	f, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := f.Section("net")
	r := snapshot.NewReader(p)
	for i := 0; i < 4; i++ {
		r.I64() // network counters
	}
	r.U64() // ports
	for !r.Bool() && r.Err() == nil {
		// an absent port
	}
	r.I64()  // busyUntil
	r.Bool() // wake
	for i := 0; i < 7; i++ {
		r.I64() // byte and packet ledgers
	}
	if r.Bool() || r.Bool() || !r.Bool() || r.Err() != nil {
		t.Fatalf("first port: a shaper, a held packet or no scheduler (%v): nothing to rewrite", r.Err())
	}
	at := len(p) - r.Remaining()
	if kind := r.I64(); kind != 4 {
		t.Fatalf("first port's scheduler is of kind %d, not the hybrid", kind)
	}
	var w snapshot.Writer
	w.I64(2) // WFQ
	bad := append(append(append([]byte(nil), p[:at]...), w.Data()...), p[len(p)-r.Remaining():]...)
	return handMade{name: "net: a hybrid's record tagged WFQ", sec: "net", payload: bad, want: snapshot.ErrMismatch}
}

// outsideDomain hand-writes "igp" and "labels" sections for a backbone whose
// provider routers are nodes, in rank order, each well-formed but for one
// position past the domain, or one record filed at the wrong router, in the
// first router's state: OSPF and LDP hold their per-router state in slices
// indexed by rank, and a restore must refuse the position, not index with
// it. Every other router's state is empty.
func outsideDomain(nodes []topo.NodeID) []handMade {
	const stray = topo.NodeID(1 << 20)
	past := uint64(len(nodes))
	// A section is a head, the first router's fields and the rest empty:
	// counts, positions and labels are unsigned varints, nodes, links,
	// metrics and sequence numbers signed.
	type u = uint64
	section := func(head func(w *snapshot.Writer), empty int, first ...any) []byte {
		var w snapshot.Writer
		head(&w)
		for _, f := range first {
			switch v := f.(type) {
			case u:
				w.U64(v)
			case int64:
				w.I64(v)
			}
		}
		for i := 1; i < len(nodes); i++ {
			for k := 0; k < empty; k++ {
				w.U64(0)
			}
		}
		return w.Data()
	}
	igp := func(w *snapshot.Writer) {
		w.I64(0) // LSA messages sent
		w.I64(0) // flood rounds
		w.U64(past)
	}
	ldp := func(w *snapshot.Writer) {
		w.U64(0)     // allocators
		w.Bool(true) // the backbone runs LDP
		for i := 0; i < 4; i++ {
			w.I64(0) // messages, rounds, session flaps, stale bindings
		}
	}
	speakers := func(w *snapshot.Writer) {
		ldp(w)
		w.U64(0) // sessions not up
		w.U64(past)
	}
	me, other, out, one := int64(nodes[0]), int64(nodes[1]), int64(stray), int64(1)
	// An empty instance is its sequence number and two empty tables; an
	// empty speaker two empty tables.
	return []handMade{
		{name: "igp: LSA at a rank past the domain", sec: "igp", payload: section(igp, 3, one, u(1), past, me, one, u(0), u(0))},
		{name: "igp: LSA filed at another router's rank", sec: "igp", payload: section(igp, 3, one, u(1), u(0), other, one, u(0), u(0))},
		{name: "igp: LSA neighbour outside the graph", sec: "igp", payload: section(igp, 3, one, u(1), u(0), me, one, u(1), out, one, int64(0), u(0))},
		{name: "igp: route to a rank past the domain", sec: "igp", payload: section(igp, 3, one, u(0), u(1), past, int64(0), one, u(1), int64(0))},
		{name: "labels: session at a rank past the domain", sec: "labels", payload: section(ldp, 0, u(1), past, one)},
		{name: "labels: local binding at a FEC past the domain", sec: "labels", payload: section(speakers, 2, u(1), past, u(16), u(0))},
		{name: "labels: bindings learned at a FEC past the domain", sec: "labels", payload: section(speakers, 2, u(0), u(1), past, u(0))},
		{name: "labels: binding learned from a rank past the domain", sec: "labels", payload: section(speakers, 2, u(0), u(1), u(0), u(1), int64(past), u(16))},
	}
}

// restoreTargets snapshots the three rigs mid-run: Backbone.Restore on the
// survivability rig, InterAS.Restore on the three-carrier rig (options A, B
// and C), and Mesh.LoadState on the clustered-reflector rig's mesh.
func restoreTargets(t testing.TB) []restoreTarget {
	rig := buildSnapRig(t, 0, 0)
	rig.b.Net.RunUntil(snapT)
	data, err := rig.b.Snapshot("fp")
	if err != nil {
		t.Fatal(err)
	}
	xrig := buildInterASRig(t, 0, 0)
	xrig.x.Net.RunUntil(interASSnapT)
	xdata, err := xrig.x.Snapshot("fp")
	if err != nil {
		t.Fatal(err)
	}
	refl := buildReflRig(t, 0, 0)
	refl.b.Net.RunUntil(reflSnapT)
	var mesh snapshot.Writer
	refl.b.BGP.SaveState(&mesh)
	var speakers []topo.NodeID
	for _, c := range refl.b.BGP.Clusters() {
		speakers = append(append(speakers, c.RRs...), c.Clients...)
	}
	slices.Sort(speakers)
	meshes, badMeshes := corruptMeshSections(speakers)
	meshes["mesh"] = mesh.Data()
	refused := map[string]error{}
	for _, name := range badMeshes {
		refused[name] = snapshot.ErrCorrupt
	}
	var igpNodes []topo.NodeID
	for _, in := range rig.b.IGP.Instances {
		igpNodes = append(igpNodes, in.Node)
	}

	return []restoreTarget{
		container(t, "Backbone.Restore", data, func(t testing.TB, d []byte) error { return buildSnapRig(t, 0, 0).b.Restore(d, "fp") },
			append([]handMade{labelAboveSpace(t, data), siteIndexPastSlots(rig.b.Router("PE1").Node), hybridTaggedWFQ(t, data)},
				outsideDomain(igpNodes)...)...),
		container(t, "InterAS.Restore", xdata, func(t testing.TB, d []byte) error { return buildInterASRig(t, 0, 0).x.Restore(d, "fp") }),
		{
			name:     "Mesh.LoadState",
			sections: append([]string{"mesh"}, badMeshes...),
			section:  func(sec string) []byte { return meshes[sec] },
			refused:  refused,
			restore: func(t testing.TB, _ string, payload []byte) error {
				return buildReflRig(t, 0, 0).b.BGP.LoadState(snapshot.NewReader(payload))
			},
		},
	}
}

// corruptMeshSections hand-writes "bgp" sections for a mesh of the given
// speakers, ascending, each well-formed but for one defect no saver
// produces, in the first speaker's state where it is a speaker's: a route
// naming a set past the set table; a handle, or a run of them, past the
// route table; a list counting more handles than the table holds, or fewer
// than its runs do; exports and an adj-RIB-in out of prefix order, between
// runs and inside one; an adj-RIB-in that holds a (prefix, origin) twice,
// inside a run and across two; a set repeated; a stamped set with an empty
// CLUSTER_LIST; and a route table that declares the most routes its
// remaining bytes admit and holds two. The layout written here is the one
// bgp.Mesh.State walks.
func corruptMeshSections(speakers []topo.NodeID) (sections map[string][]byte, names []string) {
	// A route is the third octet of its /24 and the index of its set.
	type route struct {
		third uint32
		set   uint64
	}
	// tables writes the section up to the end of its route table: one
	// attribute set per origin, the last stamped by originator (when not
	// 0) with an empty CLUSTER_LIST, and routes, of which it declares count.
	tables := func(w *snapshot.Writer, origins []int64, originator int64, count int, routes ...route) {
		c := snapshot.Saver(w)
		for i := 0; i < 8; i++ {
			w.I64(0) // mesh counters
		}
		w.U64(0) // session states
		w.U64(0) // newly suppressed prefixes
		w.U64(uint64(len(origins)))
		for i, origin := range origins {
			w.U64(1) // next hop
			w.U64(0) // route targets
			w.I64(100)
			w.I64(0)
			w.I64(origin)
			stamped := originator != 0 && i == len(origins)-1
			if w.Bool(stamped); stamped {
				w.I64(originator)
				w.U64(0) // cluster list
			}
		}
		w.U64(uint64(count))
		for i, r := range routes {
			p := addr.VPNPrefix{Prefix: addr.NewPrefix(addr.IPv4(0x0a000000+r.third<<8), 24)}
			addr.VPNPrefixState(c, &p)
			w.U64(uint64(16 + i)) // label
			w.U64(r.set)
		}
	}
	// A speaker's exports and adj-RIB-in are lists of handles written as
	// runs (snapshot.Refs; a save reads no table size): handles writes a
	// well-formed list, and raw a defect in the runs themselves, varint by
	// varint.
	type list func(w *snapshot.Writer)
	handles := func(hs ...uint32) list {
		return func(w *snapshot.Writer) { snapshot.Refs(snapshot.Saver(w), &hs, 0) }
	}
	raw := func(vs ...uint64) list {
		return func(w *snapshot.Writer) {
			for _, v := range vs {
				w.U64(v)
			}
		}
	}
	section := func(origins []int64, originator int64, routes []route, exports, paths list) []byte {
		var w snapshot.Writer
		tables(&w, origins, originator, len(routes), routes...)
		w.U64(uint64(len(speakers)))
		for i, n := range speakers {
			w.I64(int64(n))
			w.I64(0) // received
			w.I64(0) // retained
			for _, l := range []list{exports, paths} {
				if i > 0 || l == nil {
					l = handles()
				}
				l(&w)
			}
			for k := 0; k < 4; k++ {
				w.U64(0) // stale marks, damping, previous round's prefixes, pending flaps
			}
		}
		return w.Data()
	}
	two := []int64{1, 2}
	apart := []route{{1, 0}, {2, 1}}
	// A thousand routes declared, each admitted at its minimum; two present,
	// and behind them bytes that are no varint. The count passes, so what
	// bounds the load is what it decodes (see also bgp's
	// TestLoadStateAllocatesWhatItDecodes).
	var short snapshot.Writer
	tables(&short, two, 0, 1000, apart...)
	descending := []route{{2, 0}, {1, 1}}
	sections = map[string][]byte{
		"mesh: route naming a set past the table": section(two, 0, []route{{1, 0}, {2, 2}}, nil, handles(0, 1)),
		"mesh: route handle past the table":       section(two, 0, apart, nil, handles(0, 2)),
		"mesh: run of handles past the table":     section(two, 0, []route{{1, 0}, {2, 1}, {3, 0}}, nil, handles(1, 2, 3)),
		// Three handles counted, as runs, in a table of two.
		"mesh: handle count above the table": section(two, 0, apart, nil, raw(3<<1|1, 2, 1)),
		// One handle counted, and a run [0, 2): zigzag(0<<1|1), length 2-2.
		"mesh: runs overfill the count":               section(two, 0, apart, nil, raw(1<<1|1, 2, 0)),
		"mesh: exports out of prefix order":           section(two, 0, apart, handles(1, 0), nil),
		"mesh: exports in a run that descends":        section(two, 0, descending, handles(0, 1), nil),
		"mesh: paths out of prefix order":             section(two, 0, apart, nil, handles(1, 0)),
		"mesh: paths in a run that descends":          section(two, 0, descending, nil, handles(0, 1)),
		"mesh: repeated (prefix, origin)":             section(two, 0, []route{{1, 0}, {1, 0}}, nil, handles(0, 1)),
		"mesh: (prefix, origin) repeated across runs": section(two, 0, []route{{1, 0}, {9, 1}, {1, 0}}, nil, handles(0, 2)),
		"mesh: attribute set repeated":                section([]int64{1, 1}, 0, apart, nil, handles(0, 1)),
		"mesh: stamped set without a cluster list":    section(two, 3, apart, nil, handles(0, 1)),
		"mesh: route count past the routes held":      append(short.Data(), bytes.Repeat([]byte{0xff}, 1000*12)...),
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

	for sec, want := range tg.refused {
		if err := tg.restore(t, sec, tg.section(sec)); !errors.Is(err, want) {
			t.Errorf("%s, section %q: err = %v, want %v", tg.name, sec, err, want)
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
