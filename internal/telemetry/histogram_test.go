package telemetry_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/core"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/stats"
	"mplsvpn/internal/telemetry"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/trafgen"
)

// exactPercentile is the reference the histogram is held to: the
// observations sorted, and linear interpolation between the two closest
// ranks.
func exactPercentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch {
	case p <= 0:
		return sorted[0]
	case p >= 100:
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

var reportPercentiles = []float64{0, 10, 25, 50, 75, 90, 95, 99, 99.9, 100}

// matchesOracle checks a histogram against the exact reference over xs:
// every report percentile within 1/64 relative, the ends exact, and
// percentiles monotone in p.
func matchesOracle(t *testing.T, name string, h *telemetry.Histogram, xs []float64) {
	t.Helper()
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	if h.Count() != uint64(len(xs)) {
		t.Fatalf("%s: %d observations, histogram counts %d", name, len(xs), h.Count())
	}
	for _, p := range reportPercentiles {
		got, want := h.Percentile(p), exactPercentile(sorted, p)
		if math.Abs(got-want) > math.Abs(want)/64*(1+1e-12) {
			t.Errorf("%s: p%v = %v, exact %v: off by %.3g relative, bound 1/64", name, p, got, want, (got-want)/want)
		}
	}
	if h.Percentile(0) != sorted[0] || h.Percentile(100) != sorted[len(sorted)-1] ||
		h.Min() != sorted[0] || h.Max() != sorted[len(sorted)-1] {
		t.Errorf("%s: p0/p100 = %v/%v, min/max = %v/%v", name, h.Percentile(0), h.Percentile(100), sorted[0], sorted[len(sorted)-1])
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 0.25 {
		if v := h.Percentile(p); v < prev {
			t.Fatalf("%s: p%v = %v below p%v = %v", name, p, v, p-0.25, prev)
		} else {
			prev = v
		}
	}
}

func observeAll(xs []float64) *telemetry.Histogram {
	h := new(telemetry.Histogram)
	for _, x := range xs {
		h.Observe(x)
	}
	return h
}

// TestHistogramMatchesExactOracle: the histogram against the exact
// reference over shapes that stress different parts of the grid, and the
// per-class latencies of a congested metro run.
func TestHistogramMatchesExactOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 64))
	gen := func(n int, f func() float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f()
		}
		return xs
	}
	cases := map[string][]float64{
		"constant": gen(5000, func() float64 { return 7.25 }),
		"two-point": gen(4001, func() float64 {
			if rng.IntN(2) == 0 {
				return 2
			}
			return 40
		}),
		"uniform":          gen(20000, func() float64 { return 1 + 99*rng.Float64() }),
		"exponential tail": gen(20000, func() float64 { return 3 + 2*rng.ExpFloat64() }),
		"sub-microsecond":  gen(20000, func() float64 { return 1e-6 + 1e-3*rng.Float64() }),
		"multi-second":     gen(20000, func() float64 { return 1000 * math.Exp(4*rng.Float64()) }),
		"one":              {12.5},
		"zero":             gen(100, func() float64 { return 0 }),
	}
	for name, xs := range cases {
		h := observeAll(xs)
		matchesOracle(t, name, h, xs)
		if name == "constant" || name == "zero" || name == "one" {
			for _, p := range reportPercentiles {
				if got := h.Percentile(p); got != xs[0] {
					t.Errorf("%s: p%v = %v, want exactly %v", name, p, got, xs[0])
				}
			}
		}
	}

	classes := 0
	for f, xs := range metroLatencies(t) {
		matchesOracle(t, f.Name, &f.Stats.Latency, xs)
		classes++
	}
	if classes != 12 {
		t.Fatalf("%d metro flows delivered traffic, want 12", classes)
	}
}

// metroLatencies runs a short metro64-shaped scenario — a four-router ring
// at 45 Mb/s with 20 Mb/s PE uplinks, the hybrid scheduler with WRED, each
// site sending voice, business and 1.5x-overload bulk to the site across the
// ring — and returns every flow with the exact latencies of its deliveries.
func metroLatencies(t *testing.T) map[*trafgen.Flow][]float64 {
	b := core.NewBackbone(core.Config{Seed: 64, Scheduler: core.SchedHybrid, WRED: true})
	p, pe, site := func(i int) string { return fmt.Sprintf("P%d", i%4) },
		func(i int) string { return fmt.Sprintf("PE%d", i) },
		func(i int) string { return fmt.Sprintf("s%d", i%4) }
	for i := 0; i < 4; i++ {
		b.AddP(p(i))
		b.AddPE(pe(i))
	}
	for i := 0; i < 4; i++ {
		b.Link(p(i), p(i+1), 45e6, 2*sim.Millisecond, 1)
		b.Link(pe(i), p(i), 20e6, sim.Millisecond, 1)
	}
	b.BuildProvider()
	b.DefineVPN("metro")
	for i := 0; i < 4; i++ {
		b.AddSite(core.SiteSpec{VPN: "metro", Name: site(i), PE: pe(i),
			Prefixes: []addr.Prefix{addr.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", i+1))}})
	}
	b.ConvergeVPNs()

	const horizon = sim.Second
	flows := map[packet.FlowKey]*trafgen.Flow{}
	flow := func(name string, i int, port uint16, dscp packet.DSCP) *trafgen.Flow {
		f, err := b.FlowBetween(fmt.Sprintf("%s%d", name, i), site(i), site(i+2), port)
		if err != nil {
			t.Fatal(err)
		}
		f.DSCP = dscp
		flows[packet.FlowKey{Src: f.Src, Dst: f.Dst, SrcPort: f.SrcPort, DstPort: f.DstPort, Protocol: f.Proto}] = f
		return f
	}
	for i := 0; i < 4; i++ {
		off := sim.Time(i) * 137 * sim.Microsecond
		trafgen.CBR(b.Net, flow("voice", i, 5060, packet.DSCPEF), 160, 20*sim.Millisecond, off, horizon)
		trafgen.Poisson(b.Net, flow("business", i, 443, packet.DSCPAF41), 400, 500, off, horizon, b.E.Rand().Fork())
		// 1400 bytes every 373 us is 30 Mb/s, 1.5x the PE uplink.
		trafgen.CBR(b.Net, flow("bulk", i, 80, packet.DSCPBestEffort), 1400, 373*sim.Microsecond, off, horizon)
	}
	lat := map[*trafgen.Flow][]float64{}
	b.OnDeliver(func(_ topo.NodeID, p *packet.Packet) {
		if f := flows[p.FlowKey()]; f != nil {
			lat[f] = append(lat[f], float64(b.E.Now()-p.SentAt)/float64(sim.Millisecond))
		}
	})
	b.Net.RunUntil(horizon + 500*sim.Millisecond)
	if b.Net.Dropped == 0 {
		t.Fatal("the metro run dropped nothing: it is not congested")
	}
	return lat
}

// TestHistogramBasics: the exact aggregates, and the ends of the
// distribution, on a handful of values.
func TestHistogramBasics(t *testing.T) {
	var h telemetry.Histogram
	if h.Mean() != 0 || h.Count() != 0 || h.Percentile(50) != 0 {
		t.Fatal("an empty histogram should report zeros")
	}
	for _, x := range []float64{5, 1, 3, 2, 4} {
		h.Observe(x)
	}
	if h.Count() != 5 || h.Sum() != 15 || h.Mean() != 3 {
		t.Fatalf("count %d, sum %v, mean %v", h.Count(), h.Sum(), h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 || h.Percentile(0) != 1 || h.Percentile(100) != 5 {
		t.Fatalf("min/max %v/%v, p0/p100 %v/%v", h.Min(), h.Max(), h.Percentile(0), h.Percentile(100))
	}
	if got := h.Percentile(50); math.Abs(got-3) > 3.0/64 {
		t.Fatalf("p50 = %v, want 3 within 1/64", got)
	}
}

// TestHistogramInterpolation: between two observations a percentile
// interpolates linearly, and with only two both ranks are exact.
func TestHistogramInterpolation(t *testing.T) {
	var h telemetry.Histogram
	h.Observe(0)
	h.Observe(10)
	if got := h.Percentile(50); got != 5 {
		t.Fatalf("interpolated p50 = %v, want 5", got)
	}
	if got := h.Percentile(25); got != 2.5 {
		t.Fatalf("interpolated p25 = %v, want 2.5", got)
	}
}

// TestHistogramObserveAfterPercentile: reading a percentile changes
// nothing, and a later observation that widens the window downwards lands.
func TestHistogramObserveAfterPercentile(t *testing.T) {
	var h telemetry.Histogram
	h.Observe(10)
	_ = h.Percentile(50)
	h.Observe(1)
	if h.Min() != 1 || h.Percentile(0) != 1 || h.Percentile(100) != 10 {
		t.Fatalf("min %v, p0 %v, p100 %v after a later, smaller observation", h.Min(), h.Percentile(0), h.Percentile(100))
	}
}

// TestHistogramObserveZeroAlloc: once its window covers what it sees, a
// histogram observes without allocating — including after a Reset, which
// keeps the window's storage, and refilling it from the other end.
func TestHistogramObserveZeroAlloc(t *testing.T) {
	vals := []float64{0, 0.3, 7, 42, 1500}
	var h telemetry.Histogram
	for _, v := range vals {
		h.Observe(v)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		h.Reset()
		for i := len(vals) - 1; i >= 0; i-- {
			h.Observe(vals[i])
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm histogram allocated %.1f times per round", allocs)
	}
}

func stateBytes(walk func(*snapshot.Codec)) []byte {
	var w snapshot.Writer
	walk(snapshot.Saver(&w))
	return w.Data()
}

// TestHistogramCheckpointIsFlat: a flow's checkpointed distribution does not
// grow with its deliveries. After 1,000 and after 100,000 deliveries of one
// latency it is the same bytes but for its two counters (the count and the
// bucket's), whose varints widen from two bytes to three; the whole flow
// differs by at most a byte per counter.
func TestHistogramCheckpointIsFlat(t *testing.T) {
	flowAfter := func(n int) *stats.FlowStats {
		f := &stats.FlowStats{}
		for i := 0; i < n; i++ {
			sent := sim.Time(i) * sim.Millisecond
			f.RecordSent()
			f.RecordDelivery(sent, sent+7*sim.Millisecond, 100)
		}
		return f
	}
	small, large := flowAfter(1000), flowAfter(100000)
	hs, hl := stateBytes(small.Latency.State), stateBytes(large.Latency.State)
	if len(hl) != len(hs)+2 {
		t.Errorf("the distribution takes %d bytes after 1,000 deliveries and %d after 100,000", len(hs), len(hl))
	}
	fs, fl := stateBytes(small.State), stateBytes(large.State)
	if len(fl) > len(fs)+8 {
		t.Errorf("the flow takes %d bytes after 1,000 deliveries and %d after 100,000", len(fs), len(fl))
	}
}

// TestHistogramRestoreContinues: snapshot, restore and continue is the
// uninterrupted histogram, byte for byte and in every percentile, while the
// second half widens the window at both ends.
func TestHistogramRestoreContinues(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	xs := make([]float64, 30000)
	for i := range xs {
		xs[i] = 5 + rng.ExpFloat64()
		if i >= 10000 && i%100 == 0 {
			xs[i] = math.Ldexp(1, rng.IntN(40)-20)
		}
	}
	var whole, resumed telemetry.Histogram
	for _, x := range xs[:10000] {
		whole.Observe(x)
	}
	if err := snapshot.Load(snapshot.NewReader(stateBytes(whole.State)), resumed.State); err != nil {
		t.Fatal(err)
	}
	for _, x := range xs[10000:] {
		whole.Observe(x)
		resumed.Observe(x)
	}
	if !bytes.Equal(stateBytes(whole.State), stateBytes(resumed.State)) {
		t.Fatal("the resumed histogram's checkpoint differs from the uninterrupted one's")
	}
	for p := 0.0; p <= 100; p += 0.5 {
		if a, b := whole.Percentile(p), resumed.Percentile(p); a != b {
			t.Fatalf("p%v: %v uninterrupted, %v resumed", p, a, b)
		}
	}
}

// TestHistogramStateRefusesImpossibleWindow: a checkpoint whose bucket
// counts do not add up to its count, or whose window leaves the grid, is
// refused as corrupt rather than trusted by Observe or Percentile.
func TestHistogramStateRefusesImpossibleWindow(t *testing.T) {
	encode := func(n uint64, base int64, counts ...uint64) []byte {
		var w snapshot.Writer
		w.U64(n)
		for i := 0; i < 3; i++ {
			w.F64(1)
		}
		w.I64(base)
		w.U64(uint64(len(counts)))
		for _, c := range counts {
			w.U64(c)
		}
		return w.Data()
	}
	// Grid bucket 64 is [1, 1+1/64) ms, the first of octave [1, 2).
	if err := snapshot.Load(snapshot.NewReader(encode(1, 64, 1)), new(telemetry.Histogram).State); err != nil {
		t.Fatalf("a well-formed window was refused: %v", err)
	}
	for name, data := range map[string][]byte{
		"counts short of the count":  encode(3, 64, 1, 1),
		"counts past the count":      encode(1, 64, 1, 1),
		"window below the grid":      encode(1, math.MinInt32, 1),
		"window past the grid":       encode(2, 31*64-1, 1, 1),
		"window at the integer edge": encode(1, math.MaxInt64, 1),
	} {
		if err := snapshot.Load(snapshot.NewReader(data), new(telemetry.Histogram).State); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}
