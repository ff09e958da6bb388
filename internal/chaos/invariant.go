package chaos

import (
	"fmt"
	"sort"

	"mplsvpn/internal/core"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
)

// Violation is one invariant breach found after an injected fault.
type Violation struct {
	At     sim.Time
	Kind   string // "isolation", "loop", "conservation", or "te-scope"
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%12s  %-12s %s", v.At, v.Kind, v.Detail)
}

// Checker asserts the safety invariants that must hold through any fault
// sequence: no packet crosses VPNs, the forwarding tables contain no
// loops, every port's byte ledger balances, and no provider LSP runs through
// a customer's router. Undelivered traffic is expected during faults; unsafe
// traffic never is.
type Checker struct {
	Checks     int
	Violations []Violation

	b             *core.Backbone
	prevIsolation int
	sites         []string
}

// NewChecker builds a checker over the backbone's current site set.
func NewChecker(b *core.Backbone) *Checker {
	return &Checker{b: b, prevIsolation: b.IsolationViolations}
}

// Check runs one full invariant pass at the current virtual time.
func (c *Checker) Check() {
	c.Checks++
	now := c.b.E.Now()

	// C4, the paper's isolation requirement: the delivery-time leak counter
	// must not have moved.
	if v := c.b.IsolationViolations; v > c.prevIsolation {
		c.add(now, "isolation", fmt.Sprintf("%d new cross-VPN deliveries", v-c.prevIsolation))
		c.prevIsolation = v
	}

	// Per-port byte conservation: offered == tx + dropped + queued + in-flight.
	if err := c.b.Net.CheckConservation(); err != nil {
		c.add(now, "conservation", err.Error())
	}

	// TE stays inside the provider: no Up LSP or bypass transits a CE,
	// however cheap a dual-homed site makes the detour look.
	for _, v := range c.b.TEScopeViolations() {
		c.add(now, "te-scope", v)
	}

	// Loop freedom: walk the forwarding tables between every site pair.
	// Dead ends (down links, no route) are legitimate mid-fault; a trace
	// that exhausts its hop budget is a loop.
	if c.sites == nil {
		c.sites = c.b.SiteNames()
		sort.Strings(c.sites)
	}
	for _, from := range c.sites {
		for _, to := range c.sites {
			if from == to {
				continue
			}
			dst, ok := c.b.SiteAddr(to)
			if !ok {
				continue
			}
			tr := c.b.TraceRoute(from, dst, 0)
			if tr.Loop {
				c.add(now, "loop", fmt.Sprintf("%s -> %s: %s", from, to, tr.Reason))
			}
		}
	}
}

func (c *Checker) add(at sim.Time, kind, detail string) {
	c.Violations = append(c.Violations, Violation{At: at, Kind: kind, Detail: detail})
	if tel := c.b.Telemetry(); tel != nil {
		tel.Journal.Record(at, telemetry.EventInvariantViolation, "invariant:"+kind, detail)
	}
}
