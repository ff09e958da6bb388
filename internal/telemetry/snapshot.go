package telemetry

import (
	"cmp"
	"slices"

	"mplsvpn/internal/snapshot"
)

// Evicted returns how many journal entries the ring has dropped to stay
// within its capacity (recorded minus retained).
func (j *Journal) Evicted() uint64 {
	if j == nil {
		return 0
	}
	return j.seq - uint64(j.n)
}

// seriesKeyMin is the fewest bytes seriesKeyState writes: a name and seven
// labels, all empty.
const seriesKeyMin = 8

func seriesKeyState(c *snapshot.Codec, k *seriesKey) {
	c.Str(&k.name)
	c.Str(&k.labels.VPN)
	c.Str(&k.labels.Site)
	c.Str(&k.labels.Node)
	c.Str(&k.labels.Link)
	c.Str(&k.labels.Class)
	c.Str(&k.labels.Policy)
	c.Str(&k.labels.Reason)
}

// histogramMin is the fewest bytes Histogram.State writes: the count, the
// 8-byte sum, min and max, the window's base and an empty window.
const histogramMin = 1 + 3*8 + 1 + 1

// State walks the histogram: its exact count, sum, min and max, then its
// window as the grid index of the first bucket and a uvarint count per
// bucket, so its size follows the window, not the observations. A load
// refuses counts that do not add up to the count and a window off the grid.
func (h *Histogram) State(c *snapshot.Codec) {
	snapshot.Uint(c, &h.n)
	c.F64(&h.sum)
	c.F64(&h.min)
	c.F64(&h.max)
	snapshot.Int(c, &h.base)
	n := c.Len(len(h.counts), 1)
	if c.Loading() {
		h.counts = slices.Grow(h.counts[:0], n)[:n]
	}
	var total uint64
	for i := range h.counts {
		snapshot.Uint(c, &h.counts[i])
		total += h.counts[i]
	}
	if c.Loaded() && (total != h.n || n > 0 && (h.base < loIndex || h.base > hiIndex+1-n)) {
		c.Corrupt("histogram of %d observations holds %d in grid buckets [%d, %d)", h.n, total, h.base, h.base+n)
	}
}

// seriesState walks one family of instruments, sorted by (name, labels) so
// the encoding is independent of map iteration order. A load overlays the
// values: instruments already resolved by the scenario rebuild keep their
// pointers (the hot path holds them directly); series the rebuild has not
// touched yet are created. min is the value's minimum encoding.
func seriesState[T any](c *snapshot.Codec, r *Registry, m map[seriesID]*T, min int, val func(*snapshot.Codec, *T)) {
	// Labels render once per key, not once per comparison.
	type rendered struct {
		key    seriesKey
		labels string
		inst   *T
	}
	var keys []rendered
	if !c.Loading() {
		keys = make([]rendered, 0, len(m))
		for id, inst := range m {
			k := r.key(id)
			keys = append(keys, rendered{k, k.labels.String(), inst})
		}
		slices.SortFunc(keys, func(a, b rendered) int {
			return cmp.Or(cmp.Compare(a.key.name, b.key.name), cmp.Compare(a.labels, b.labels))
		})
	}
	var k seriesKey
	for i, n := 0, c.Len(len(keys), seriesKeyMin+min); i < n && c.Err() == nil; i++ {
		var inst *T
		if !c.Loading() {
			k, inst = keys[i].key, keys[i].inst
		}
		seriesKeyState(c, &k)
		if c.Loading() {
			inst = instrument(r, m, k)
		}
		val(c, inst)
	}
}

// State walks every live series.
func (r *Registry) State(c *snapshot.Codec) {
	seriesState(c, r, r.counters, 1, func(c *snapshot.Codec, ctr *Counter) { snapshot.Int(c, &ctr.v) })
	seriesState(c, r, r.gauges, 8, func(c *snapshot.Codec, g *Gauge) { c.F64(&g.v) })
	seriesState(c, r, r.hists, histogramMin, func(c *snapshot.Codec, h *Histogram) { h.State(c) })
}

// State walks the journal ring: capacity, the global sequence cursor, then
// the retained entries oldest-first. The capacity is scenario configuration.
// A load re-normalizes the ring to start at slot zero — equivalent state,
// since eviction order depends only on entry order, not slot positions.
func (j *Journal) State(c *snapshot.Codec) {
	if capacity := c.U64(uint64(len(j.buf))); capacity != uint64(len(j.buf)) && c.Err() == nil {
		c.Mismatch("journal capacity %d in checkpoint, %d in scenario", capacity, len(j.buf))
	}
	snapshot.Uint(c, &j.seq)
	// An entry is three varints and two strings.
	n := c.Len(j.n, 5)
	if n > len(j.buf) {
		c.Corrupt("journal of %d entries with capacity %d", n, len(j.buf))
		return
	}
	if c.Loading() {
		clear(j.buf)
		j.start, j.n = 0, n
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		e := &j.buf[(j.start+i)%len(j.buf)]
		snapshot.Uint(c, &e.Seq)
		snapshot.Int(c, &e.At)
		kind := c.U64(uint64(e.Kind))
		if kind > uint64(eventKindEnd) {
			c.Corrupt("journal event kind %d", kind)
		}
		e.Kind = EventKind(kind)
		c.Str(&e.Subject)
		c.Str(&e.Detail)
	}
}

func flowKeyState(c *snapshot.Codec, k *FlowKey) {
	c.Str(&k.VPN)
	c.Str(&k.SrcSite)
	c.Str(&k.DstSite)
	c.Str(&k.Class)
}

// State walks the exporter's dynamics: eviction count, the interval cursor,
// per-key accumulators (in the keys' sorted order), and retained records.
// Interval, MaxRecords, and OnRoll are scenario configuration.
func (x *FlowExporter) State(c *snapshot.Codec) {
	snapshot.Int(c, &x.Evicted)
	snapshot.Int(c, &x.start)
	if c.Loading() {
		x.accs, x.index = nil, make(map[FlowKey]int32)
	}
	// A key is four strings, its accumulator two varints, in key order; a
	// load numbers the accumulators in that order.
	snapshot.Slice(c, &x.order, 4+2, func(c *snapshot.Codec, i *int32) {
		if c.Loading() {
			*i = int32(len(x.accs))
			x.accs = append(x.accs, flowAcct{})
		}
		a := &x.accs[*i]
		flowKeyState(c, &a.key)
		if c.Loading() {
			x.index[a.key] = *i
		}
		snapshot.Int(c, &a.pkts)
		snapshot.Int(c, &a.bytes)
	})
	snapshot.Slice(c, &x.records, 2+4+2, func(c *snapshot.Codec, rec *FlowRecord) {
		snapshot.Int(c, &rec.Start)
		snapshot.Int(c, &rec.End)
		flowKeyState(c, &rec.FlowKey)
		snapshot.Int(c, &rec.Packets)
		snapshot.Int(c, &rec.Bytes)
	})
}

// State walks every target's interval window and breach state machine, in
// target order. Targets and hooks are scenario configuration: a load needs
// a watcher rebuilt with the same target list.
func (w *Watcher) State(c *snapshot.Codec) {
	if !c.FixedLen(len(w.Targets), histogramMin+7, "SLA targets") {
		return
	}
	for _, t := range w.Targets {
		st := w.states[t.VPN]
		st.lat.State(c)
		snapshot.Int(c, &st.delivered)
		snapshot.Int(c, &st.dropped)
		snapshot.Int(c, &st.bad)
		snapshot.Int(c, &st.good)
		c.Bool(&st.breached)
		snapshot.Int(c, &st.breaches)
		snapshot.Int(c, &st.clears)
	}
}
