package telemetry

import (
	"fmt"
	"strings"

	"mplsvpn/internal/sim"
)

// EventKind classifies a journal entry.
type EventKind uint8

// Journal event kinds.
const (
	EventLinkDown EventKind = iota
	EventLinkUp
	EventLSPUp
	EventLSPDown
	EventLSPSetupFailed
	EventLSPPreempted
	EventLSPReoptimized
	EventSLABreach
	EventSLAClear
	EventNodeDown
	EventNodeUp
	EventTERetry
	EventTEDegraded
	EventTERestored
	EventOpRejected
	EventCtrlLoss
	EventChaos
	EventInvariantViolation
	EventSessionFlap
	EventSessionRestored
	EventStaleSwept
	EventRouteDamped
	EventRouteReused
	EventIntentCommit
	EventIntentRollback
	EventIntentQuarantine
	EventReconverged
)

// eventKindEnd is the last valid kind; UnmarshalJSON ranges up to it.
const eventKindEnd = EventReconverged

func (k EventKind) String() string {
	switch k {
	case EventLinkDown:
		return "link_down"
	case EventLinkUp:
		return "link_up"
	case EventLSPUp:
		return "lsp_up"
	case EventLSPDown:
		return "lsp_down"
	case EventLSPSetupFailed:
		return "lsp_setup_failed"
	case EventLSPPreempted:
		return "lsp_preempted"
	case EventLSPReoptimized:
		return "lsp_reoptimized"
	case EventSLABreach:
		return "sla_breach"
	case EventSLAClear:
		return "sla_clear"
	case EventNodeDown:
		return "node_down"
	case EventNodeUp:
		return "node_up"
	case EventTERetry:
		return "te_retry"
	case EventTEDegraded:
		return "te_degraded"
	case EventTERestored:
		return "te_restored"
	case EventOpRejected:
		return "op_rejected"
	case EventCtrlLoss:
		return "ctrl_loss"
	case EventChaos:
		return "chaos"
	case EventInvariantViolation:
		return "invariant_violation"
	case EventSessionFlap:
		return "session_flap"
	case EventSessionRestored:
		return "session_restored"
	case EventStaleSwept:
		return "stale_swept"
	case EventRouteDamped:
		return "route_damped"
	case EventRouteReused:
		return "route_reused"
	case EventIntentCommit:
		return "intent_commit"
	case EventIntentRollback:
		return "intent_rollback"
	case EventIntentQuarantine:
		return "intent_quarantine"
	case EventReconverged:
		return "reconverged"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// MarshalJSON encodes the kind as its string name, keeping JSON snapshots
// readable and stable even if the enum is ever reordered.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts the string names MarshalJSON produces.
func (k *EventKind) UnmarshalJSON(data []byte) error {
	name := strings.Trim(string(data), `"`)
	for c := EventLinkDown; c <= eventKindEnd; c++ {
		if c.String() == name {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("unknown event kind %q", name)
}

// Event is one journal entry. Seq is a global sequence number assigned at
// record time, so entries remain totally ordered even when several land on
// the same virtual timestamp.
type Event struct {
	Seq     uint64    `json:"seq"`
	At      sim.Time  `json:"at"`
	Kind    EventKind `json:"kind"`
	Subject string    `json:"subject"`          // "lsp:voice", "link:P1->PE2", "vpn:acme"
	Detail  string    `json:"detail,omitempty"` // free-form, deterministic text
}

// String renders the entry as one journal line.
func (e Event) String() string {
	s := fmt.Sprintf("#%04d %12s  %-16s %s", e.Seq, e.At, e.Kind, e.Subject)
	if e.Detail != "" {
		s += "  " + e.Detail
	}
	return s
}

// DefaultJournalCap bounds the journal when the caller passes no capacity:
// enough for every control-plane event of the experiment scenarios while
// keeping a runaway flap storm from growing without bound.
const DefaultJournalCap = 512

// Journal is a bounded ring buffer of control-plane and SLA events. When
// full, the oldest entries are evicted (and counted), like a fixed-size
// syslog ring on a router. A nil *Journal drops every record.
type Journal struct {
	buf   []Event
	start int // index of the oldest entry
	n     int // live entries
	seq   uint64
}

// NewJournal returns a journal holding at most capacity events
// (capacity <= 0 selects DefaultJournalCap).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Journal{buf: make([]Event, capacity)}
}

// Record appends an event, evicting the oldest when full.
func (j *Journal) Record(at sim.Time, kind EventKind, subject, detail string) {
	if j == nil {
		return
	}
	e := Event{Seq: j.seq, At: at, Kind: kind, Subject: subject, Detail: detail}
	j.seq++
	if j.n < len(j.buf) {
		j.buf[(j.start+j.n)%len(j.buf)] = e
		j.n++
		return
	}
	j.buf[j.start] = e
	j.start = (j.start + 1) % len(j.buf)
}

// Len returns the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	return j.n
}

// Total returns the number of events ever recorded (retained + evicted).
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	return j.seq
}

// Events returns the retained events oldest-first.
func (j *Journal) Events() []Event {
	if j == nil || j.n == 0 {
		return nil
	}
	out := make([]Event, j.n)
	for i := 0; i < j.n; i++ {
		out[i] = j.buf[(j.start+i)%len(j.buf)]
	}
	return out
}

// Render formats the retained events one per line, oldest first. The
// output is deterministic for a fixed seed — the byte-identity property
// the determinism tests assert.
func (j *Journal) Render() string {
	var b strings.Builder
	for _, e := range j.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
