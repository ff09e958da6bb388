package telemetry

import (
	"fmt"
	"sort"

	"mplsvpn/internal/sim"
)

// FlowKey aggregates deliveries the way an IPFIX exporter on a PE would:
// per (VPN, source site, destination site, forwarding class). Comparable,
// so the per-interval accumulators need no per-packet allocation.
type FlowKey struct {
	VPN     string `json:"vpn"`
	SrcSite string `json:"src"`
	DstSite string `json:"dst"`
	Class   string `json:"class"`
}

func (k FlowKey) String() string {
	return fmt.Sprintf("vpn=%s %s->%s class=%s", k.VPN, k.SrcSite, k.DstSite, k.Class)
}

// flowKeyLess orders keys for deterministic emission.
func flowKeyLess(a, b FlowKey) bool {
	if a.VPN != b.VPN {
		return a.VPN < b.VPN
	}
	if a.SrcSite != b.SrcSite {
		return a.SrcSite < b.SrcSite
	}
	if a.DstSite != b.DstSite {
		return a.DstSite < b.DstSite
	}
	return a.Class < b.Class
}

// FlowRecord is one exported record: the traffic of one key over one
// export interval [Start, End).
type FlowRecord struct {
	Start sim.Time `json:"start"`
	End   sim.Time `json:"end"`
	FlowKey
	Packets int64 `json:"packets"`
	Bytes   int64 `json:"bytes"`
}

// String renders the record as one text line.
func (r FlowRecord) String() string {
	return fmt.Sprintf("[%v,%v) %s pkts=%d bytes=%d", r.Start, r.End, r.FlowKey, r.Packets, r.Bytes)
}

// Exporter defaults.
const (
	DefaultExportInterval = 100 * sim.Millisecond
	DefaultMaxRecords     = 4096
)

// flowAcct is one key's accumulator for the current interval. Accumulators
// persist across intervals (zeroed at flush) so a steady flow allocates
// exactly once over the whole run.
type flowAcct struct {
	pkts  int64
	bytes int64
}

// FlowExporter accumulates per-key traffic and flushes a batch of
// FlowRecords at every interval boundary of virtual time. It has no timer
// of its own: Record and RollTo advance it lazily, so an engine Run() can
// still quiesce, and a caller wanting wall-aligned ticks just schedules
// RollTo on the sim engine up to its horizon.
type FlowExporter struct {
	// Interval is the export period (<= 0 selects DefaultExportInterval).
	Interval sim.Time
	// MaxRecords bounds retained records; the oldest are evicted (and
	// counted in Evicted) once exceeded. <= 0 selects DefaultMaxRecords.
	MaxRecords int
	// OnRoll, when set, runs after each interval [start, end) flushes —
	// the hook the SLA watcher and utilization sampler hang off.
	OnRoll func(start, end sim.Time)

	// Evicted counts records dropped to honour MaxRecords.
	Evicted int

	keys    []FlowKey // sorted; insertion is rare (first sight of a key)
	acct    map[FlowKey]*flowAcct
	records []FlowRecord
	start   sim.Time // current interval's start
}

// NewFlowExporter returns an exporter with the given interval
// (<= 0 selects DefaultExportInterval).
func NewFlowExporter(interval sim.Time) *FlowExporter {
	x := &FlowExporter{Interval: interval, acct: make(map[FlowKey]*flowAcct)}
	x.normalize()
	return x
}

func (x *FlowExporter) normalize() {
	if x.Interval <= 0 {
		x.Interval = DefaultExportInterval
	}
	if x.MaxRecords <= 0 {
		x.MaxRecords = DefaultMaxRecords
	}
}

// Record accounts one delivered packet at virtual time now, first flushing
// any export intervals that now has passed. Steady-state cost is one map
// lookup and two adds — no allocation once a key has been seen.
func (x *FlowExporter) Record(now sim.Time, k FlowKey, bytes int) {
	if x == nil {
		return
	}
	x.RollTo(now)
	a, ok := x.acct[k]
	if !ok {
		a = &flowAcct{}
		x.acct[k] = a
		i := sort.Search(len(x.keys), func(i int) bool { return !flowKeyLess(x.keys[i], k) })
		x.keys = append(x.keys, FlowKey{})
		copy(x.keys[i+1:], x.keys[i:])
		x.keys[i] = k
	}
	a.pkts++
	a.bytes += int64(bytes)
}

// RollTo flushes every interval that ends at or before now. Callers drive
// this from delivery/drop hooks (lazy mode) or from pre-scheduled engine
// events (tick mode); both yield the same records because intervals are
// aligned to multiples of Interval regardless of who triggers the flush.
func (x *FlowExporter) RollTo(now sim.Time) {
	if x == nil {
		return
	}
	x.normalize()
	for x.start+x.Interval <= now {
		end := x.start + x.Interval
		x.flush(x.start, end)
		x.start = end
	}
}

// flush emits the current interval's non-empty accumulators in key order,
// zeroes them, and fires OnRoll.
func (x *FlowExporter) flush(start, end sim.Time) {
	for _, k := range x.keys {
		a := x.acct[k]
		if a.pkts == 0 {
			continue
		}
		if len(x.records) >= x.MaxRecords {
			// Step past the oldest instead of shifting the rest down: the
			// append below moves the window to a new array only when this
			// one is used up, once per few hundred evictions.
			x.records = x.records[1:]
			x.Evicted++
		}
		x.records = append(x.records, FlowRecord{
			Start: start, End: end, FlowKey: k, Packets: a.pkts, Bytes: a.bytes,
		})
		a.pkts, a.bytes = 0, 0
	}
	if x.OnRoll != nil {
		x.OnRoll(start, end)
	}
}

// Records returns the retained flow records, oldest first.
func (x *FlowExporter) Records() []FlowRecord {
	if x == nil {
		return nil
	}
	return x.records
}
