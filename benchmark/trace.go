package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the harness into a layer. Spans are recorded
// from the benchmark's own files only; the program under test carries no
// instrumentation.
type span struct {
	Name       string
	Start, End time.Duration // host time since the tracer's epoch
	Parent     int           // index into tracer.spans, -1 for a root
	Rep        int           // repetition id shared by every span of one repetition
	Args       map[string]float64
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer is the untraced run: every method is a no-op, so workload code
// calls it unconditionally.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
	rep   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open span and returns the function
// that closes it; counts observed at the closing boundary go in args as
// name, value pairs.
func (t *tracer) begin(name string) func(args ...any) {
	if t == nil {
		return func(...any) {}
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), Parent: parent, Rep: t.rep})
	t.stack = append(t.stack, id)
	return func(args ...any) {
		sp := &t.spans[id]
		sp.End = time.Since(t.epoch)
		for i := 0; i+1 < len(args); i += 2 {
			if sp.Args == nil {
				sp.Args = map[string]float64{}
			}
			sp.Args[args[i].(string)] = toFloat(args[i+1])
		}
		t.stack = t.stack[:len(t.stack)-1]
	}
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	case float64:
		return x
	case time.Duration:
		return x.Seconds()
	}
	panic(fmt.Sprintf("trace: unsupported arg type %T", v))
}

// selfTimes returns, per span name, the summed self time: the span's
// duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, sp := range t.spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	out := map[string]time.Duration{}
	for i, sp := range t.spans {
		out[sp.Name] += sp.End - sp.Start - child[i]
	}
	return out
}

// coveragePct is the share of the root spans' wall time that their direct
// child spans cover. The remainder is harness time outside any layer call.
func (t *tracer) coveragePct() float64 {
	var root, covered time.Duration
	for _, sp := range t.spans {
		switch {
		case sp.Parent < 0:
			root += sp.End - sp.Start
		case t.spans[sp.Parent].Parent < 0:
			covered += sp.End - sp.Start
		}
	}
	if root == 0 {
		return 0
	}
	return 100 * float64(covered) / float64(root)
}

// printSelfTimes writes the self-time table to w, largest first.
func (t *tracer) printSelfTimes(w *os.File) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	var all time.Duration
	for n, d := range self {
		names = append(names, n)
		all += d
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "  %-28s %12s %7s\n", "span", "self_ms", "share")
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %12.3f %6.1f%%\n", n, self[n].Seconds()*1e3, 100*float64(self[n])/float64(all))
	}
	fmt.Fprintf(w, "  %-28s %12.3f  (spans cover %.2f%% of the repetition wall time)\n",
		"sum", all.Seconds()*1e3, t.coveragePct())
}

// chromeEvent is one entry of the Chrome trace-event format ("X" complete
// events; load the file in chrome://tracing or ui.perfetto.dev).
type chromeEvent struct {
	Name string             `json:"name"`
	Ph   string             `json:"ph"`
	Ts   float64            `json:"ts"`  // microseconds
	Dur  float64            `json:"dur"` // microseconds
	Pid  int                `json:"pid"`
	Tid  int                `json:"tid"` // repetition id
	Args map[string]float64 `json:"args,omitempty"`
}

func (t *tracer) write(path string) error {
	evs := make([]chromeEvent, 0, len(t.spans))
	for _, sp := range t.spans {
		evs = append(evs, chromeEvent{
			Name: sp.Name, Ph: "X",
			Ts:  float64(sp.Start) / 1e3,
			Dur: float64(sp.End-sp.Start) / 1e3,
			Pid: 1, Tid: sp.Rep, Args: sp.Args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
