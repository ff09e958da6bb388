package telemetry

import (
	"fmt"
	"strings"

	"mplsvpn/internal/sim"
)

// SLATarget is one VPN's online service-level contract, evaluated against
// each export interval's traffic. Zero-valued limits are not checked.
type SLATarget struct {
	VPN string

	MaxP99Ms float64 // p99 one-way latency ceiling, ms
	MaxLoss  float64 // loss-fraction ceiling per interval (0..1)
}

// slaSustain consecutive breaching intervals trigger the breach action, and
// slaClear consecutive clean intervals after a breach declare recovery: one
// bad interval is noise, a sustained run is an incident.
const slaSustain, slaClear = 2, 2

// SLAWindow is one VPN's interval window plus its breach state machine. A
// delivery path resolves it once (Watcher.Window) and observes through it;
// a nil *SLAWindow — a VPN without a target — ignores every observation.
type SLAWindow struct {
	lat       Histogram // this interval's latencies, reset each Eval
	delivered int64
	dropped   int64

	bad      int // consecutive breaching intervals
	good     int // consecutive clean intervals
	breached bool
	breaches int
	clears   int
}

// SLAStatus is one target's state frozen into a snapshot.
type SLAStatus struct {
	VPN      string `json:"vpn"`
	Breached bool   `json:"breached"`
	Breaches int    `json:"breaches"`
	Clears   int    `json:"clears"`
}

// Watcher evaluates SLA targets online, once per export interval, against
// the traffic observed in that interval only — so it reacts to the
// network's current state, not the run's history. On a sustained breach it
// journals the event and fires OnBreach (the pluggable reoptimize/resize
// action); on sustained recovery it journals the clear. A nil *Watcher
// ignores every observation.
type Watcher struct {
	Targets []SLATarget
	Journal *Journal

	// OnBreach runs once per breach transition (not per interval) with a
	// deterministic reason string.
	OnBreach func(vpn, reason string)
	// OnClear runs once per recovery transition.
	OnClear func(vpn string)

	states map[string]*SLAWindow
}

// NewWatcher builds a watcher over the given targets, journaling
// transitions into j (which may be nil).
func NewWatcher(targets []SLATarget, j *Journal) *Watcher {
	w := &Watcher{Targets: targets, Journal: j, states: make(map[string]*SLAWindow)}
	for _, t := range targets {
		w.states[t.VPN] = &SLAWindow{}
	}
	return w
}

// Window returns the VPN's interval window, or nil when no target names the
// VPN (or w is nil). The window lives as long as the watcher.
func (w *Watcher) Window(vpn string) *SLAWindow {
	if w == nil {
		return nil
	}
	return w.states[vpn]
}

// ObserveDelivery feeds one delivered packet's one-way latency (ms) into
// the window.
func (st *SLAWindow) ObserveDelivery(latencyMs float64) {
	if st == nil {
		return
	}
	st.lat.Observe(latencyMs)
	st.delivered++
}

// ObserveDrop feeds one dropped packet into the window.
func (st *SLAWindow) ObserveDrop() {
	if st == nil {
		return
	}
	st.dropped++
}

// Eval closes the interval ending at 'at': each target's window is scored
// against its limits, the breach state machine advances, and the window
// resets. Intervals with no traffic leave the streaks untouched — silence
// is neither a breach nor evidence of recovery.
func (w *Watcher) Eval(at sim.Time) {
	if w == nil {
		return
	}
	for i := range w.Targets {
		t := &w.Targets[i]
		st := w.states[t.VPN]
		total := st.delivered + st.dropped
		if total == 0 {
			continue
		}
		var reasons []string
		if t.MaxP99Ms > 0 {
			if p99 := st.lat.Percentile(99); p99 > t.MaxP99Ms {
				reasons = append(reasons, fmt.Sprintf("p99 %.1fms > %.1fms", p99, t.MaxP99Ms))
			}
		}
		if t.MaxLoss > 0 {
			if loss := float64(st.dropped) / float64(total); loss > t.MaxLoss {
				reasons = append(reasons, fmt.Sprintf("loss %.1f%% > %.1f%%", loss*100, t.MaxLoss*100))
			}
		}

		if len(reasons) > 0 {
			st.bad++
			st.good = 0
		} else {
			st.good++
			st.bad = 0
		}
		switch {
		case !st.breached && st.bad >= slaSustain:
			st.breached = true
			st.breaches++
			reason := strings.Join(reasons, ", ")
			w.Journal.Record(at, EventSLABreach, "vpn:"+t.VPN,
				fmt.Sprintf("%s for %d intervals", reason, st.bad))
			if w.OnBreach != nil {
				w.OnBreach(t.VPN, reason)
			}
		case st.breached && st.good >= slaClear:
			st.breached = false
			st.clears++
			w.Journal.Record(at, EventSLAClear, "vpn:"+t.VPN,
				fmt.Sprintf("clean for %d intervals", st.good))
			if w.OnClear != nil {
				w.OnClear(t.VPN)
			}
		}

		st.lat.Reset()
		st.delivered, st.dropped = 0, 0
	}
}

// Breached reports whether the VPN is currently in breach.
func (w *Watcher) Breached(vpn string) bool {
	if w == nil {
		return false
	}
	st, ok := w.states[vpn]
	return ok && st.breached
}

// Status freezes every target's state in target order.
func (w *Watcher) Status() []SLAStatus {
	if w == nil {
		return nil
	}
	out := make([]SLAStatus, len(w.Targets))
	for i, t := range w.Targets {
		st := w.states[t.VPN]
		out[i] = SLAStatus{VPN: t.VPN, Breached: st.breached, Breaches: st.breaches, Clears: st.clears}
	}
	return out
}
