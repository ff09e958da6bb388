package telemetry

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(7)
	g.Set(3)
	h.Observe(1)
	h.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.99) != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	var r *Registry
	if r.Counter("x", Labels{}) != nil || r.Gauge("x", Labels{}) != nil ||
		r.Histogram("x", Labels{}, nil) != nil || r.Snapshot() != nil {
		t.Fatal("nil registry must resolve nil instruments")
	}
}

// The disabled hot path must be allocation-free: nil instrument calls are
// what instrumented code executes when telemetry is off.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var c *Counter
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(42)
		h.Observe(3.5)
	})
	if allocs != 0 {
		t.Fatalf("disabled instruments allocated %.1f/op", allocs)
	}
}

// The enabled record path must also be allocation-free in steady state.
func TestEnabledPathZeroAllocSteadyState(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pkts", Labels{VPN: "v"})
	h := r.Histogram("lat", Labels{VPN: "v"}, nil)
	x := NewFlowExporter(100 * sim.Millisecond)
	k := FlowKey{VPN: "v", SrcSite: "a", DstSite: "b", Class: "voice"}
	x.Record(0, k, 100) // first sight allocates the accumulator
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(128)
		h.Observe(4.2)
		x.Record(sim.Millisecond, k, 128)
	})
	if allocs != 0 {
		t.Fatalf("enabled steady-state path allocated %.1f/op", allocs)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", Labels{Node: "PE1"})
	b := r.Counter("x", Labels{Node: "PE1"})
	if a != b {
		t.Fatal("same (name, labels) must resolve the same counter")
	}
	if r.Counter("x", Labels{Node: "PE2"}) == a {
		t.Fatal("different labels must resolve different counters")
	}
	a.Add(3)
	b.Inc()
	if a.Value() != 4 {
		t.Fatalf("merged count = %d, want 4", a.Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5, 10})
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in the (1,2] bucket
	}
	if q := h.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("p50 = %v, want within (1,2]", q)
	}
	h2 := NewHistogram([]float64{1, 2, 5, 10})
	h2.Observe(100) // overflow bucket
	if q := h2.Quantile(0.99); q != 10 {
		t.Fatalf("overflow quantile = %v, want last bound 10", q)
	}
	if h.Count() != 100 || h.Sum() != 150 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestLabelsString(t *testing.T) {
	if s := (Labels{}).String(); s != "" {
		t.Fatalf("empty labels = %q", s)
	}
	l := Labels{VPN: "acme", Link: "PE1->P1", Class: "voice"}
	if s := l.String(); s != "{vpn=acme,link=PE1->P1,class=voice}" {
		t.Fatalf("labels = %q", s)
	}
}

func TestJournalRingEviction(t *testing.T) {
	j := NewJournal(3)
	for i := 0; i < 5; i++ {
		j.Record(sim.Time(i), EventLSPUp, "lsp:x", "")
	}
	ev := j.Events()
	if len(ev) != 3 || j.Total() != 5 {
		t.Fatalf("len=%d total=%d", len(ev), j.Total())
	}
	if ev[0].Seq != 2 || ev[2].Seq != 4 {
		t.Fatalf("retained seqs = %d..%d, want 2..4", ev[0].Seq, ev[2].Seq)
	}
	var nilJ *Journal
	nilJ.Record(0, EventLSPUp, "x", "") // must not panic
	if nilJ.Len() != 0 {
		t.Fatal("nil journal must stay empty")
	}
}

func TestFlowExporterIntervals(t *testing.T) {
	x := NewFlowExporter(100 * sim.Millisecond)
	k1 := FlowKey{VPN: "v", SrcSite: "a", DstSite: "b", Class: "voice"}
	k2 := FlowKey{VPN: "v", SrcSite: "a", DstSite: "b", Class: "best-effort"}
	x.Record(10*sim.Millisecond, k1, 100)
	x.Record(20*sim.Millisecond, k2, 1400)
	x.Record(30*sim.Millisecond, k1, 100)
	// Crossing into the second interval flushes the first.
	x.Record(110*sim.Millisecond, k1, 100)
	recs := x.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2 (one per key in interval 0)", len(recs))
	}
	// Sorted by key: best-effort < voice.
	if recs[0].Class != "best-effort" || recs[0].Packets != 1 || recs[0].Bytes != 1400 {
		t.Fatalf("rec[0] = %+v", recs[0])
	}
	if recs[1].Class != "voice" || recs[1].Packets != 2 || recs[1].Bytes != 200 {
		t.Fatalf("rec[1] = %+v", recs[1])
	}
	if recs[0].Start != 0 || recs[0].End != 100*sim.Millisecond {
		t.Fatalf("interval = [%v,%v)", recs[0].Start, recs[0].End)
	}
	// RollTo across a long idle gap flushes the in-flight interval and
	// skips the empty ones without emitting records.
	x.RollTo(sim.Second)
	if got := len(x.Records()); got != 3 {
		t.Fatalf("records after idle roll = %d, want 3", got)
	}
}

func TestFlowExporterOnRollFiresEveryInterval(t *testing.T) {
	x := NewFlowExporter(100 * sim.Millisecond)
	var rolls []sim.Time
	x.OnRoll = func(start, end sim.Time) { rolls = append(rolls, end) }
	x.RollTo(350 * sim.Millisecond)
	if len(rolls) != 3 {
		t.Fatalf("rolls = %v, want 3 interval ends", rolls)
	}
	if rolls[2] != 300*sim.Millisecond {
		t.Fatalf("last roll end = %v", rolls[2])
	}
}

func TestFlowExporterEviction(t *testing.T) {
	x := NewFlowExporter(10 * sim.Millisecond)
	x.MaxRecords = 2
	k := FlowKey{VPN: "v", SrcSite: "a", DstSite: "b", Class: "voice"}
	for i := 0; i < 4; i++ {
		x.Record(sim.Time(i*10)*sim.Millisecond+sim.Millisecond, k, 100)
	}
	x.RollTo(50 * sim.Millisecond)
	if len(x.Records()) != 2 || x.Evicted != 2 {
		t.Fatalf("len=%d evicted=%d", len(x.Records()), x.Evicted)
	}
	// Oldest evicted: the retained records are the most recent intervals.
	if x.Records()[0].Start != 20*sim.Millisecond {
		t.Fatalf("oldest retained start = %v", x.Records()[0].Start)
	}
}

// The retained window once the cap is passed three times over, against the
// definition: append, then shift everything down by one while over the cap.
// Records (oldest first), Evicted and the checkpoint bytes must all agree.
func TestFlowExporterEvictionMatchesShiftByOne(t *testing.T) {
	x := NewFlowExporter(10 * sim.Millisecond)
	x.MaxRecords = 64
	keys := []FlowKey{
		{VPN: "v", SrcSite: "a", DstSite: "b", Class: "voice"},
		{VPN: "v", SrcSite: "a", DstSite: "c", Class: "bulk"},
		{VPN: "w", SrcSite: "d", DstSite: "e", Class: "voice"},
	}
	var want []FlowRecord
	evicted := 0
	for i := 0; len(want)+evicted < 4*x.MaxRecords; i++ {
		start := sim.Time(i) * x.Interval
		for j, k := range keys {
			if (i+j)%3 == 0 {
				continue // not every key is seen in every interval
			}
			x.Record(start+sim.Millisecond, k, 100+j)
		}
		x.RollTo(start + x.Interval)
		for j, k := range keys { // keys is in flush order
			if (i+j)%3 == 0 {
				continue
			}
			want = append(want, FlowRecord{Start: start, End: start + x.Interval, FlowKey: k, Packets: 1, Bytes: int64(100 + j)})
			if len(want) > x.MaxRecords {
				copy(want, want[1:])
				want = want[:len(want)-1]
				evicted++
			}
		}
	}
	if evicted < 3*x.MaxRecords-len(keys) {
		t.Fatalf("only %d evictions: the cap was not passed three times over", evicted)
	}
	if got := x.Records(); !slices.Equal(got, want) || x.Evicted != evicted {
		t.Fatalf("%d records and %d evicted, want %d and %d; or the windows differ", len(got), x.Evicted, len(want), evicted)
	}
	ref := &FlowExporter{Interval: x.Interval, MaxRecords: x.MaxRecords, Evicted: evicted,
		keys: x.keys, acct: x.acct, records: want, start: x.start}
	var got, wantBytes snapshot.Writer
	x.State(snapshot.Saver(&got))
	ref.State(snapshot.Saver(&wantBytes))
	if !bytes.Equal(got.Data(), wantBytes.Data()) {
		t.Fatal("the exporter's checkpoint differs from the reference window's")
	}
}

func TestWatcherBreachAndRecovery(t *testing.T) {
	j := NewJournal(0)
	w := NewWatcher([]SLATarget{{VPN: "v", MaxP99Ms: 20, MaxLoss: 0.01, Sustain: 2, Clear: 2}}, j)
	var breaches, clears []string
	w.OnBreach = func(vpn, reason string) { breaches = append(breaches, vpn+": "+reason) }
	w.OnClear = func(vpn string) { clears = append(clears, vpn) }

	feed := func(lat float64, n int) {
		for i := 0; i < n; i++ {
			w.ObserveDelivery("v", lat)
		}
	}

	// Interval 1: clean.
	feed(5, 10)
	w.Eval(100 * sim.Millisecond)
	if w.Breached("v") {
		t.Fatal("breached after one clean interval")
	}
	// Intervals 2-3: latency blows the p99 target; breach fires on the
	// second consecutive bad interval, not the first.
	feed(50, 10)
	w.Eval(200 * sim.Millisecond)
	if w.Breached("v") || len(breaches) != 0 {
		t.Fatal("breach fired before Sustain intervals")
	}
	feed(50, 10)
	w.Eval(300 * sim.Millisecond)
	if !w.Breached("v") || len(breaches) != 1 {
		t.Fatalf("breached=%v breaches=%v", w.Breached("v"), breaches)
	}
	if !strings.Contains(breaches[0], "p99") {
		t.Fatalf("reason = %q", breaches[0])
	}
	// An empty interval is neutral: no progress toward recovery.
	w.Eval(400 * sim.Millisecond)
	// Two clean intervals clear it.
	feed(5, 10)
	w.Eval(500 * sim.Millisecond)
	feed(5, 10)
	w.Eval(600 * sim.Millisecond)
	if w.Breached("v") || len(clears) != 1 {
		t.Fatalf("breached=%v clears=%v", w.Breached("v"), clears)
	}

	// The journal recorded both transitions, exactly once each.
	txt := j.Render()
	if strings.Count(txt, "sla_breach") != 1 || strings.Count(txt, "sla_clear") != 1 {
		t.Fatalf("journal:\n%s", txt)
	}
	st := w.Status()
	if len(st) != 1 || st[0].Breaches != 1 || st[0].Clears != 1 {
		t.Fatalf("status = %+v", st)
	}
}

func TestWatcherLossBreach(t *testing.T) {
	w := NewWatcher([]SLATarget{{VPN: "v", MaxLoss: 0.1, Sustain: 1}}, nil)
	fired := false
	w.OnBreach = func(vpn, reason string) { fired = strings.Contains(reason, "loss") }
	// 100% loss: drops only.
	w.ObserveDrop("v")
	w.ObserveDrop("v")
	w.Eval(100 * sim.Millisecond)
	if !fired || !w.Breached("v") {
		t.Fatal("total starvation must breach the loss target")
	}
}

func TestSnapshotRendering(t *testing.T) {
	tel := New(100*sim.Millisecond, 0)
	tel.Reg.Counter("pkts", Labels{VPN: "v"}).Add(5)
	tel.Reg.Gauge("util", Labels{Link: "A->B"}).Set(0.5)
	tel.Reg.Histogram("lat", Labels{VPN: "v"}, nil).Observe(3)
	tel.Journal.Record(sim.Second, EventLinkDown, "link:A<->B", "detect 50ms")
	tel.Flows.Record(sim.Millisecond, FlowKey{VPN: "v", SrcSite: "a", DstSite: "b", Class: "voice"}, 100)
	sampled := false
	tel.OnSample = func() { sampled = true }

	s := tel.Snapshot(sim.Second)
	if !sampled {
		t.Fatal("OnSample did not run")
	}
	txt := s.Text()
	for _, want := range []string{
		"telemetry snapshot @ 1s", "pkts{vpn=v} 5", "util{link=A->B} 0.5",
		"lat{vpn=v} count=1", "link_down", "vpn=v a->b class=voice pkts=1 bytes=100",
	} {
		if !strings.Contains(txt, want) {
			t.Fatalf("text missing %q:\n%s", want, txt)
		}
	}

	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.At != sim.Second || len(back.Metrics) != 3 || len(back.Events) != 1 {
		t.Fatalf("round-trip = %+v", back)
	}
	if !strings.Contains(string(data), `"kind": "link_down"`) {
		t.Fatal("event kind must marshal as its name")
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b", Labels{}).Inc()
	r.Counter("a", Labels{Node: "z"}).Inc()
	r.Counter("a", Labels{Node: "m"}).Inc()
	snap := r.Snapshot()
	if snap[0].Name != "a" || snap[0].Labels.Node != "m" || snap[2].Name != "b" {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
}
