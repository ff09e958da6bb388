// Package telemetry is the backbone's streaming observability plane: a
// metrics registry (counters, gauges, log-linear histograms) keyed by
// typed labels, an IPFIX-style interval flow exporter, a bounded event
// journal, and an online SLA watcher that closes the paper's QoS loop by
// reacting to sustained breaches during the run instead of reporting them
// afterwards.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Instruments are resolved once at attach
//     time into plain pointers held by the hot path; a nil pointer means
//     "telemetry off" and every method on a nil instrument is a safe no-op,
//     so the packet path carries no map lookups, no interface calls, and no
//     allocations either way.
//  2. Determinism. All iteration that reaches output is over sorted keys,
//     timestamps are virtual (sim.Time), and nothing reads the wall clock —
//     two same-seed runs render byte-identical journals and snapshots.
//  3. No import cycles. This package depends only on internal/sim and the
//     standard library; data-plane packages import it, and the control
//     plane (rsvp) reports through a callback instead.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Labels identifies one time series. Empty fields are unset and omitted
// from rendered output; the struct is comparable so it can key a map
// without allocation.
type Labels struct {
	VPN    string `json:"vpn,omitempty"`
	Site   string `json:"site,omitempty"`
	Node   string `json:"node,omitempty"`
	Link   string `json:"link,omitempty"`   // directed link, "A->B"
	Class  string `json:"class,omitempty"`  // forwarding class name
	Policy string `json:"policy,omitempty"` // classifier policy name
	Reason string `json:"reason,omitempty"` // drop cause (packet.DropReason name)
}

// String renders the label set in a fixed field order, e.g.
// "{vpn=acme,link=PE1->P1,class=voice}". Unset fields are omitted; a fully
// empty label set renders as "".
func (l Labels) String() string {
	var b strings.Builder
	add := func(k, v string) {
		if v == "" {
			return
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		} else {
			b.WriteByte('{')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(v)
	}
	add("vpn", l.VPN)
	add("site", l.Site)
	add("node", l.Node)
	add("link", l.Link)
	add("class", l.Class)
	add("policy", l.Policy)
	add("reason", l.Reason)
	if b.Len() == 0 {
		return ""
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing int64. All methods are safe on a
// nil receiver — instrumented code holds a nil *Counter when telemetry is
// disabled and calls it unconditionally.
type Counter struct{ v int64 }

func (c *Counter) held() bool { return c.v != 0 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-write-wins float64, safe on a nil receiver.
type Gauge struct{ v float64 }

func (g *Gauge) held() bool { return math.Float64bits(g.v) != 0 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the stored value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// seriesKey identifies one metric series in the registry.
type seriesKey struct {
	name   string
	labels Labels
}

// seriesID is a seriesKey with its eight strings interned: the registry
// holds a series per port, class and counter, thousands on a provider
// backbone, and a pointer-free 32-byte key keeps its maps a third the size
// of ones keyed by eight string headers.
type seriesID [8]uint32

// Registry is the metric store. Instruments are get-or-create: resolving
// the same (name, labels) twice returns the same instrument, so counts
// from different attach points merge. A nil *Registry resolves every
// instrument to nil — the disabled plane.
type Registry struct {
	strs     []string          // interned strings, by id
	ids      map[string]uint32 // and their ids
	counters map[seriesID]*Counter
	gauges   map[seriesID]*Gauge
	hists    map[seriesID]*Histogram
	// detached holds the instruments a checkpoint load emptied and did not
	// name: made by the build before the load, they stay in the maps so
	// that every pointer resolved to them stays good, but the registry
	// neither lists nor checkpoints one while it holds nothing, until it is
	// resolved again. Empty but after a load onto a build that had run.
	detached map[any]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ids:      make(map[string]uint32),
		counters: make(map[seriesID]*Counter),
		gauges:   make(map[seriesID]*Gauge),
		hists:    make(map[seriesID]*Histogram),
	}
}

// intern returns the id of s, numbering it on first sight.
func (r *Registry) intern(s string) uint32 {
	i, ok := r.ids[s]
	if !ok {
		i = uint32(len(r.strs))
		r.strs = append(r.strs, s)
		r.ids[s] = i
	}
	return i
}

// id interns a series key.
func (r *Registry) id(k seriesKey) seriesID {
	l := k.labels
	return seriesID{r.intern(k.name), r.intern(l.VPN), r.intern(l.Site), r.intern(l.Node),
		r.intern(l.Link), r.intern(l.Class), r.intern(l.Policy), r.intern(l.Reason)}
}

// key is the series key an id interns.
func (r *Registry) key(id seriesID) seriesKey {
	s := r.strs
	return seriesKey{s[id[0]], Labels{VPN: s[id[1]], Site: s[id[2]], Node: s[id[3]],
		Link: s[id[4]], Class: s[id[5]], Policy: s[id[6]], Reason: s[id[7]]}}
}

// instrument resolves k to its instrument in m, creating it on first use.
func instrument[T any](r *Registry, m map[seriesID]*T, k seriesKey) *T {
	id := r.id(k)
	x, ok := m[id]
	if !ok {
		x = new(T)
		m[id] = x
	} else if r.detached[x] {
		delete(r.detached, x)
	}
	return x
}

// shown reports whether the registry lists and checkpoints inst, which
// holds something when held.
func (r *Registry) shown(inst any, held bool) bool { return held || !r.detached[inst] }

// Counter resolves (name, labels) to its counter, creating it on first use.
func (r *Registry) Counter(name string, l Labels) *Counter {
	if r == nil {
		return nil
	}
	return instrument(r, r.counters, seriesKey{name, l})
}

// Gauge resolves (name, labels) to its gauge, creating it on first use.
func (r *Registry) Gauge(name string, l Labels) *Gauge {
	if r == nil {
		return nil
	}
	return instrument(r, r.gauges, seriesKey{name, l})
}

// Histogram resolves (name, labels) to its histogram, creating it on first
// use.
func (r *Registry) Histogram(name string, l Labels) *Histogram {
	if r == nil {
		return nil
	}
	return instrument(r, r.hists, seriesKey{name, l})
}

// Bucket is one non-empty bucket of a histogram's grid in a snapshot: its
// upper edge and its count.
type Bucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Metric is one series frozen into a snapshot.
type Metric struct {
	Name   string `json:"name"`
	Labels Labels `json:"labels"`
	Kind   string `json:"kind"` // "counter" | "gauge" | "histogram"

	// Counter/gauge value.
	Value float64 `json:"value,omitempty"`

	// Histogram summary.
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// String renders the metric as one text line.
func (m Metric) String() string {
	switch m.Kind {
	case "histogram":
		return fmt.Sprintf("%s%s count=%d sum=%.3f", m.Name, m.Labels, m.Count, m.Sum)
	default:
		return fmt.Sprintf("%s%s %g", m.Name, m.Labels, m.Value)
	}
}

// Snapshot freezes every series, sorted by name then label string, so the
// output is deterministic regardless of map iteration order.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for id, c := range r.counters {
		if !r.shown(c, c.held()) {
			continue
		}
		k := r.key(id)
		out = append(out, Metric{Name: k.name, Labels: k.labels, Kind: "counter", Value: float64(c.v)})
	}
	for id, g := range r.gauges {
		if !r.shown(g, g.held()) {
			continue
		}
		k := r.key(id)
		out = append(out, Metric{Name: k.name, Labels: k.labels, Kind: "gauge", Value: g.v})
	}
	for id, h := range r.hists {
		if !r.shown(h, h.held()) {
			continue
		}
		k := r.key(id)
		m := Metric{Name: k.name, Labels: k.labels, Kind: "histogram", Count: h.n, Sum: h.sum}
		for i, c := range h.counts {
			if c > 0 {
				_, le := edges(h.base + i)
				m.Buckets = append(m.Buckets, Bucket{LE: le, Count: c})
			}
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels.String() < out[j].Labels.String()
	})
	return out
}
