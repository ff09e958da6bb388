package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// runConfig is what one repetition receives. The program under test sees
// only the inputs the workload derives from seed.
type runConfig struct {
	seed uint64
	// scale multiplies every horizon and population. 1 is the benchmark;
	// the smoke test and the warm-up repetition run scaled down.
	scale float64
	tr    *tracer // nil = untraced
}

// scaled returns n scaled down, never below min.
func (c runConfig) scaled(n, min int) int {
	v := int(float64(n)*c.scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

// repOut is what one repetition reports back to the runner.
type repOut struct {
	setupS []float64 // host seconds of every from-nothing build in the repetition
	// rate is the repetition's measured stage as a whole: units of work
	// (packets, faults, routes) per host second.
	rate        float64
	snapMs      []float64 // host ms of every snapshot taken
	restoreMs   []float64 // host ms of every restore applied
	snapshotB   float64   // bytes of the last checkpoint taken
	liveHeapMB  float64   // post-GC HeapInuse with the scenario built and run
	fingerprint string    // everything that must repeat exactly at one seed

	ops       int      // individual operations attempted (faults, snapshots, restores)
	opsFailed int      // of those, how many failed
	failures  []string // one line per failed operation or failed repetition check

	// layer carries per-layer values observed during the repetition: exact
	// counts always, timings where the harness timed a call into the layer.
	layer map[string]float64
}

// check records a verdict on the repetition as a whole: the repetition is
// itself one operation and fails when any of its checks does.
func (r *repOut) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// op records one attempted operation inside the repetition and its verdict.
func (r *repOut) op(ok bool, format string, args ...any) {
	r.ops++
	if !ok {
		r.opsFailed++
	}
	r.check(ok, format, args...)
}

// tally adds the repetition to a run's attempted and failed counts.
func (r *repOut) tally(res *runResult, label string, log *os.File) {
	res.Attempted += r.ops + 1
	res.Failed += r.opsFailed
	if len(r.failures) > 0 {
		res.Failed++
	}
	for _, f := range r.failures {
		fmt.Fprintf(log, "FAIL %s: %s\n", label, f)
	}
}

// workload is one named set of inputs.
type workload struct {
	name string
	// unit names the work counted in work_per_s.
	unit string
	rep  func(cfg runConfig) *repOut
	// probes, when set, runs the workload's per-layer probes on a scenario
	// it builds itself and adds to layer. Traced runs only.
	probes func(cfg runConfig, layer map[string]float64)
	// perPacketModel marks the serial traffic workloads, whose traced run
	// ends with the count x probe cost attribution table.
	perPacketModel bool
}

var workloads = []workload{
	{name: "backbone200_cbr", unit: "pkt", rep: repBackbone200Serial, probes: probeBackbone200, perPacketModel: true},
	{name: "backbone200_shards8", unit: "pkt", rep: backbone200ShardsRep(), probes: probeBackbone200},
	{name: "metro64_congested", unit: "pkt", rep: repMetro64, probes: probeMetro64, perPacketModel: true},
	{name: "pop147_churn", unit: "fault", rep: repPop147, probes: probePop147},
	{name: "vpnv4_100k", unit: "route", rep: repVPNv4},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// warmupScale is the horizon of the discarded warm-up repetition: long
// enough to fault in code, grow the pools and settle the GC pacer, short
// enough not to eat the run.
const warmupScale = 0.15

// minReps is the fewest measured repetitions a run pools samples from.
const minReps = 2

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line of standard output.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// heapInuseMB forces a collection and returns live heap.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// forceGC collects before a timed stage, so one stage's garbage is not
// charged to the next. Traced, the collection gets its own span: on the
// larger scenarios it is not negligible.
func forceGC(tr *tracer) {
	end := tr.begin("runtime.GC")
	runtime.GC()
	end()
}

// timedSpan runs fn from a collected heap, inside a span when traced, and
// returns its host duration.
func timedSpan(tr *tracer, name string, fn func()) time.Duration {
	forceGC(tr)
	end := tr.begin(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	end()
	return d
}

// timedCheckpoint is timedSpan for one snapshot or one restore, with the
// collector held off while it runs. A checkpoint allocates several times
// what it writes (27 MB for backbone200's 3.4 MB), about as much as the heap
// may grow before the next collection is due, so whether one collection, two
// or none start inside it depends on how far the heap is from its goal, and
// that differs from seed to seed: the same metro64 snapshot-and-restore
// costs 31 ms at one seed and 40 ms at the next. Held off, the sample is the
// codec's own work, allocation included, and stays within a few percent
// across seeds. What the checkpoint leaves behind is collected before the
// collector is let go again, so it is not charged to whatever is timed next.
func timedCheckpoint(tr *tracer, name string, fn func()) time.Duration {
	percent := debug.SetGCPercent(-1)
	d := timedSpan(tr, name, fn)
	forceGC(tr)
	debug.SetGCPercent(percent)
	return d
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// runEndToEnd is the untraced run: one discarded warm-up repetition, then
// repetitions until seconds of host time have passed (never fewer than
// minReps), each on a freshly built scenario. A repetition is one sample of
// every wall-clock metric:
//
//   - setup_s: the median of the repetition's builds;
//   - work_per_s: its measured stage as a whole, so whatever happens inside
//     the stage now and then (a collection, a barrier stall, a pool growing)
//     is inside the sample;
//   - checkpoint_ms: the median of its snapshots plus the median of its
//     restores, each timed with the collector held off (timedCheckpoint).
//
// The first build and the first snapshot of a repetition run on a heap the
// collector has just emptied and fault their memory in, at up to twice the
// cost of the later ones, so a repetition takes several of each: they are
// the warm-up its median passes over.
//
// The metric is the fastest repetition, with the median, min, max and the
// sample count printed beside it. At one seed the repetitions do identical,
// deterministic work, so they differ only by what the host did meanwhile, and
// that is one-sided: a quiet host runs backbone200_cbr at 218-222k pkt/s
// repetition after repetition, and every ten to thirty seconds a neighbour
// takes it down to 140-190k for a few. Over 176 repetitions in windows of
// nine, the fastest of a window stayed within 6 % and its median within 15 %.
// A repetition is seconds of work with every occasional cost of the program
// inside it, so the fastest one drops nothing the program did.
func runEndToEnd(w workload, seed uint64, seconds, scale float64, log *os.File) runResult {
	w.rep(runConfig{seed: seed, scale: scale * warmupScale})

	var reps []*repOut
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds() < seconds {
		reps = append(reps, w.rep(runConfig{seed: seed, scale: scale}))
	}

	res := runResult{Metrics: map[string]metricValue{}}
	var setup, rate, checkpoint, heap []float64
	for i, r := range reps {
		r.check(r.fingerprint == reps[0].fingerprint, "fingerprint %s differs from repetition 0's %s",
			digest(r.fingerprint), digest(reps[0].fingerprint))
		r.tally(&res, fmt.Sprintf("%s rep %d", w.name, i), log)
		setup = append(setup, median(r.setupS))
		rate = append(rate, r.rate)
		checkpoint = append(checkpoint, median(r.snapMs)+median(r.restoreMs))
		heap = append(heap, r.liveHeapMB)
	}
	res.Correct = res.Failed == 0
	last := reps[len(reps)-1]

	units := map[string]string{}
	for _, m := range spec().EndToEnd {
		units[m.Name] = m.Unit
	}
	put := func(name string, value float64, detail string) {
		res.Metrics[name] = metricValue{Value: value, Unit: units[name]}
		fmt.Fprintf(log, "  %-16s %16.4f %-4s %s\n", name, value, units[name], detail)
	}
	// fastest reports a wall-clock metric: the least disturbed repetition.
	fastest := func(name string, samples []float64, better func(a, b float64) float64) {
		lo, hi := minMax(samples)
		put(name, better(lo, hi), fmt.Sprintf("fastest of %d repetitions, median %.4f min %.4f max %.4f", len(samples), median(samples), lo, hi))
	}
	fmt.Fprintf(log, "%s seed=%d fingerprint=%s (work unit: %s)\n", w.name, seed, digest(last.fingerprint), w.unit)
	fastest("setup_s", setup, math.Min)
	fastest("work_per_s", rate, math.Max)
	fastest("checkpoint_ms", checkpoint, math.Min)
	put("snapshot_bytes", last.snapshotB, "last checkpoint")
	put("live_heap_mb", median(heap), fmt.Sprintf("median of %d repetitions", len(heap)))
	put("peak_rss_mb", peakRSSMB(), "VmHWM of this process")
	return res
}

// runTraced is the per-layer run: after the warm-up, one untraced and one
// traced repetition (their difference is the tracing overhead), then the
// workload's isolated layer probes. Spans go to traceOut as Chrome
// trace-event JSON. Besides the result it returns the values the run
// actually observed: the result itself reports 0 for every declared
// per-layer metric this workload has nothing to say about.
func runTraced(w workload, seed uint64, scale float64, traceOut string, log *os.File) (runResult, map[string]float64) {
	w.rep(runConfig{seed: seed, scale: scale * warmupScale})
	plain := w.rep(runConfig{seed: seed, scale: scale})

	tr := newTracer()
	tr.rep = 1
	endRep := tr.begin("repetition")
	traced := w.rep(runConfig{seed: seed, scale: scale, tr: tr})
	endRep()

	layer := map[string]float64{}
	for k, v := range traced.layer {
		layer[k] = v
	}
	layer["snapshot.snapshot_ms"] = median(traced.snapMs)
	layer["snapshot.restore_ms"] = median(traced.restoreMs)
	if decode, ok := layer["snapshot.decode_ms"]; ok {
		layer["snapshot.restore_apply_ms"] = layer["snapshot.restore_ms"] - decode
	}
	layer["trace.overhead_pct"] = 100 * (plain.rate - traced.rate) / plain.rate
	layer["trace.span_coverage_pct"] = tr.coveragePct()
	layer["trace.spans"] = float64(len(tr.spans))
	layer["check.fingerprint_crc"] = float64(crc32.ChecksumIEEE([]byte(traced.fingerprint)))

	cfg := runConfig{seed: seed, scale: scale}
	probeCommon(layer)
	if w.probes != nil {
		w.probes(cfg, layer)
	}
	if w.perPacketModel {
		attribute(w, layer, log)
	}

	res := runResult{Metrics: map[string]metricValue{}}
	traced.check(plain.fingerprint == traced.fingerprint, "traced fingerprint %s differs from untraced %s",
		digest(traced.fingerprint), digest(plain.fingerprint))
	plain.tally(&res, w.name+" untraced", log)
	traced.tally(&res, w.name+" traced", log)
	res.Correct = res.Failed == 0

	fmt.Fprintf(log, "%s seed=%d traced fingerprint=%s\n", w.name, seed, digest(traced.fingerprint))
	tr.printSelfTimes(log)
	if traceOut != "" {
		if err := tr.write(traceOut); err != nil {
			fmt.Fprintf(log, "trace: %v\n", err)
		} else {
			fmt.Fprintf(log, "trace written to %s (%d spans)\n", traceOut, len(tr.spans))
		}
	}
	units := perLayerUnits()
	for name := range layer {
		if _, ok := units[name]; !ok {
			panic("per-layer metric not declared in BENCHMARK.json: " + name)
		}
	}
	for _, name := range perLayerNames() {
		res.Metrics[name] = metricValue{Value: layer[name], Unit: units[name]}
		if _, seen := layer[name]; seen {
			fmt.Fprintf(log, "  %-36s %16.4f %s\n", name, layer[name], units[name])
		}
	}
	return res, layer
}
