package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mplsvpn/internal/sim"
)

// Property: a flow's latency percentiles are monotone in p and bounded by
// min/max, whatever the values, the grid's far ends included.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		var s FlowStats
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			s.Latency.Observe(x)
		}
		h := &s.Latency
		if h.Count() == 0 {
			return true
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := h.Percentile(p1), h.Percentile(p2)
		return v1 <= v2 && v1 >= h.Min() && v2 <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestJitterConstantTransit(t *testing.T) {
	var j Jitter
	for i := 0; i < 100; i++ {
		sent := sim.Time(i) * 20 * sim.Millisecond
		j.Observe(sent, sent+5*sim.Millisecond)
	}
	if j.Value() != 0 {
		t.Fatalf("constant transit should yield zero jitter, got %v", j.Value())
	}
	if j.Count() != 100 {
		t.Fatalf("Count = %d", j.Count())
	}
}

func TestJitterVariableTransit(t *testing.T) {
	var j Jitter
	for i := 0; i < 1000; i++ {
		sent := sim.Time(i) * 20 * sim.Millisecond
		transit := 5 * sim.Millisecond
		if i%2 == 1 {
			transit = 9 * sim.Millisecond
		}
		j.Observe(sent, sent+transit)
	}
	// |D| alternates at 4ms; the RFC 3550 filter converges to 4ms.
	if got := j.Value(); math.Abs(got-4) > 0.5 {
		t.Fatalf("jitter = %v ms, want ~4", got)
	}
}

func TestFlowStats(t *testing.T) {
	f := &FlowStats{Name: "voice"}
	for i := 0; i < 10; i++ {
		f.RecordSent()
	}
	for i := 0; i < 8; i++ {
		sent := sim.Time(i) * sim.Second
		f.RecordDelivery(sent, sent+10*sim.Millisecond, 100)
	}
	f.RecordDrop()
	f.RecordDrop()
	if got := f.LossRate(); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("LossRate = %v, want 0.2", got)
	}
	if f.Latency.Percentile(50) != 10 {
		t.Fatalf("p50 latency = %v ms", f.Latency.Percentile(50))
	}
	// 8 deliveries of 100 bytes over (7s + 10ms) window.
	thr := f.ThroughputBps()
	want := 8 * 100 * 8 / (7.010)
	if math.Abs(thr-want) > 1 {
		t.Fatalf("throughput = %v, want ~%v", thr, want)
	}
	if !strings.Contains(f.Summary(), "voice") {
		t.Fatal("summary missing flow name")
	}
}

func TestFlowStatsEmpty(t *testing.T) {
	f := &FlowStats{Name: "x"}
	if f.LossRate() != 0 || f.ThroughputBps() != 0 {
		t.Fatal("empty flow stats should be zero")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("E1", "sites", "overlay VCs", "mpls state")
	tb.AddRow(10, 45, 20)
	tb.AddRow(200, 19900, 400)
	out := tb.String()
	if !strings.Contains(out, "E1") || !strings.Contains(out, "19900") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	// Columns align: header and rows have same width.
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("separator width mismatch:\n%s", out)
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(3.14159)
	if !strings.Contains(tb.String(), "3.14") {
		t.Fatalf("float not formatted: %s", tb.String())
	}
}

func TestTimeSeriesBuckets(t *testing.T) {
	ts := NewTimeSeries("deliveries", 100*sim.Millisecond)
	ts.Incr(50 * sim.Millisecond)
	ts.Incr(99 * sim.Millisecond)
	ts.Incr(100 * sim.Millisecond)
	ts.Add(350*sim.Millisecond, 5)
	if ts.Len() != 4 {
		t.Fatalf("Len = %d", ts.Len())
	}
	want := []float64{2, 1, 0, 5}
	for i, w := range want {
		if ts.Bucket(i) != w {
			t.Fatalf("bucket %d = %v, want %v", i, ts.Bucket(i), w)
		}
	}
	if ts.Bucket(99) != 0 || ts.Bucket(-1) != 0 {
		t.Fatal("out-of-range buckets should be 0")
	}
	out := ts.Render(20)
	if !strings.Contains(out, "#") || !strings.Contains(out, "deliveries") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestTimeSeriesValuesCopy(t *testing.T) {
	ts := NewTimeSeries("x", sim.Second)
	ts.Incr(0)
	v := ts.Values()
	v[0] = 99
	if ts.Bucket(0) != 1 {
		t.Fatal("Values aliases internal state")
	}
}

func TestRFactorAndMOS(t *testing.T) {
	// Perfect network: near-max quality.
	r := RFactor(10, 0)
	if r < 90 {
		t.Fatalf("R for clean call = %v", r)
	}
	if m := MOS(r); m < 4.3 {
		t.Fatalf("MOS for clean call = %v", m)
	}
	// Monotone: more delay or more loss never improves R.
	if RFactor(200, 0) >= RFactor(50, 0) {
		t.Fatal("R not decreasing in delay")
	}
	if RFactor(50, 0.05) >= RFactor(50, 0) {
		t.Fatal("R not decreasing in loss")
	}
	// The 150ms interactivity knee: slope steepens past ~177ms.
	d1 := RFactor(100, 0) - RFactor(150, 0)
	d2 := RFactor(200, 0) - RFactor(250, 0)
	if d2 <= d1 {
		t.Fatalf("no delay knee: %v vs %v", d1, d2)
	}
	// Bounds.
	if MOS(0) != 1 || MOS(-5) != 1 || MOS(100) != 4.5 || MOS(150) != 4.5 {
		t.Fatal("MOS bounds wrong")
	}
	if RFactor(10000, 1) != 0 {
		t.Fatalf("R floor = %v", RFactor(10000, 1))
	}
}

func TestVoiceQualityGrades(t *testing.T) {
	cases := []struct {
		delay float64
		loss  float64
		want  string
	}{
		{10, 0, "toll quality"},
		{250, 0.02, "acceptable"},
		{280, 0.03, "degraded"},
		{400, 0.15, "unusable"},
	}
	for _, c := range cases {
		r := RFactor(c.delay, c.loss)
		q := VoiceQuality{R: r, MOS: MOS(r)}
		if q.Grade() != c.want {
			t.Fatalf("delay=%v loss=%v -> MOS %.2f grade %q, want %q",
				c.delay, c.loss, q.MOS, q.Grade(), c.want)
		}
	}
}

func TestScoreVoice(t *testing.T) {
	f := &FlowStats{Name: "v"}
	for i := 0; i < 100; i++ {
		f.RecordSent()
		sent := sim.Time(i) * 20 * sim.Millisecond
		f.RecordDelivery(sent, sent+8*sim.Millisecond, 160)
	}
	q := ScoreVoice(f)
	if q.Grade() != "toll quality" {
		t.Fatalf("clean call graded %q (MOS %.2f)", q.Grade(), q.MOS)
	}
}

func TestSLAEvaluate(t *testing.T) {
	f := &FlowStats{Name: "voice"}
	for i := 0; i < 100; i++ {
		f.RecordSent()
		sent := sim.Time(i) * 20 * sim.Millisecond
		f.RecordDelivery(sent, sent+8*sim.Millisecond, 160)
	}
	good := SLATarget{Name: "voice", MaxP99Ms: 20, MaxLoss: 0.01, MaxJitterMs: 5, MinMOS: 4.0, MinKbps: 10}
	r := good.Evaluate(f)
	if !r.Pass || len(r.Violations) != 0 {
		t.Fatalf("clean flow failed SLA: %v", r.Violations)
	}
	if !strings.Contains(r.String(), "PASS") {
		t.Fatal("pass line wrong")
	}

	tight := SLATarget{Name: "voice", MaxP99Ms: 1, MaxP50Ms: 1, MinKbps: 1e6}
	r = tight.Evaluate(f)
	if r.Pass || len(r.Violations) != 3 {
		t.Fatalf("tight SLA passed: %v", r.Violations)
	}
	if !strings.Contains(r.String(), "FAIL") {
		t.Fatal("fail line wrong")
	}

	// Unchecked fields never fail.
	if !(SLATarget{Name: "x"}).Evaluate(f).Pass {
		t.Fatal("empty target failed")
	}

	// Loss violation.
	f.RecordSent()
	f.RecordSent()
	lossy := SLATarget{Name: "v", MaxLoss: 0.001}
	if lossy.Evaluate(f).Pass {
		t.Fatal("loss violation missed")
	}
}
