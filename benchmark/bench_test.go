package main

import (
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// smokeScale shrinks every horizon and population so the whole suite runs
// in a few seconds; the checks are the benchmark's own.
const smokeScale = 0.05

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// skipIfShort keeps the tests that build the 147-router control plane a
// dozen times out of `go test -short` (and with it out of `make test-race`,
// where they would take minutes).
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds every workload several times; skipped with -short")
	}
}

func devNull(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestWorkloadsPassTheirChecks runs one scaled-down repetition of every
// workload at seeds 77 and 78: both must pass every check, and the two seeds
// must produce different inputs, hence different fingerprints.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	skipIfShort(t)
	for _, w := range workloads {
		fps := map[uint64]string{}
		for _, seed := range []uint64{77, 78} {
			out := w.rep(runConfig{seed: seed, scale: smokeScale})
			for _, f := range out.failures {
				t.Errorf("%s seed %d: %s", w.name, seed, f)
			}
			if out.rate <= 0 || len(out.setupS) == 0 || len(out.snapMs) == 0 || len(out.restoreMs) == 0 {
				t.Errorf("%s seed %d: a stage reported no samples: %+v", w.name, seed, out)
			}
			fps[seed] = out.fingerprint
		}
		if fps[77] == fps[78] {
			t.Errorf("%s: seeds 77 and 78 give the same fingerprint %s", w.name, digest(fps[77]))
		}
	}
}

// TestShardedFingerprintEqualsSerial pins the cross-workload contract.
func TestShardedFingerprintEqualsSerial(t *testing.T) {
	cfg := runConfig{seed: 77, scale: smokeScale}
	if a, b := repBackbone200Serial(cfg).fingerprint, backbone200ShardsRep()(cfg).fingerprint; a != b {
		t.Errorf("backbone200_shards8 fingerprint %s != backbone200_cbr %s", digest(b), digest(a))
	}
}

// TestDeclaredNamesAreTheEmittedNames checks BENCHMARK.json against what the
// harness emits: the workloads, the end-to-end metrics of an untraced run,
// and the per-layer metrics of the traced runs, each of which must be
// observed by at least one workload.
func TestDeclaredNamesAreTheEmittedNames(t *testing.T) {
	skipIfShort(t)
	probeBatch = time.Millisecond
	s := spec()
	log := devNull(t)

	var declared, have []string
	for _, w := range s.Workloads {
		declared = append(declared, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !equalSets(declared, have) {
		t.Errorf("workloads declared %v, implemented %v", declared, have)
	}

	seen := map[string]bool{}
	for _, m := range append(append([]metricDecl{}, s.EndToEnd...), s.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}

	observed := map[string]bool{}
	for _, w := range workloads {
		res := runEndToEnd(w, 77, 0, smokeScale, log)
		if !res.Correct {
			t.Errorf("%s: untraced run failed %d of %d operations", w.name, res.Failed, res.Attempted)
		}
		var emitted, want []string
		for name, v := range res.Metrics {
			emitted = append(emitted, name)
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, name, v.Value)
			}
		}
		for _, m := range s.EndToEnd {
			want = append(want, m.Name)
		}
		if !equalSets(emitted, want) {
			t.Errorf("%s: end-to-end metrics emitted %v, declared %v", w.name, emitted, want)
		}

		tres, layer := runTraced(w, 77, smokeScale, "", log)
		if !tres.Correct {
			t.Errorf("%s: traced run failed %d of %d operations", w.name, tres.Failed, tres.Attempted)
		}
		if len(tres.Metrics) != len(s.PerLayer) {
			t.Errorf("%s: traced run emitted %d per-layer metrics, %d declared", w.name, len(tres.Metrics), len(s.PerLayer))
		}
		for name := range layer {
			observed[name] = true
		}
		// A reconvergence re-signals every TE intent once, on paths a little
		// longer than the build's, so it costs about what the build's
		// signalling did. Several times that would be a running total.
		if re, built := layer["rsvp.resignals_per_fault"], layer["rsvp.path_msgs"]; re > 2*built || (built > 0 && re == 0) {
			t.Errorf("%s: rsvp.resignals_per_fault is %v where the build sent %v PATH messages", w.name, re, built)
		}
	}
	for _, m := range s.PerLayer {
		if !observed[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload observes it", m.Name)
		}
	}
}

func equalSets(a, b []string) bool {
	a, b = append([]string{}, a...), append([]string{}, b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
