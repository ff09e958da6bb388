// RSVP soft-state: reservations persist only as long as refreshes keep
// succeeding. The paper's architecture relies on RSVP-TE reservations
// staying truthful after failures; without refresh expiry a torn fibre
// leaves phantom LSPs holding bandwidth forever. Here a periodic refresh
// scan stands in for the PATH/RESV refresh exchange: an Up LSP whose path
// crosses a down link misses its refresh, and enough consecutive misses
// (a hello timeout) tears it down and releases its reservations.
package rsvp

import "fmt"

// DefaultRefreshMisses is the standard RSVP keep multiplier: three missed
// refreshes expire the state (RFC 2205 K=3).
const DefaultRefreshMisses = 3

// RefreshScan performs one refresh round over every Up LSP, in ID order so
// the outcome is deterministic. An LSP whose path crosses a down link
// accumulates a miss; maxMiss consecutive misses (<=0 selects
// DefaultRefreshMisses) tear it down, emit EventRefreshTimeout, and count
// in Timeouts. A clean refresh resets the miss counter. The IDs of the
// LSPs torn down this round are returned.
func (p *Protocol) RefreshScan(maxMiss int) []int {
	return p.RefreshScanWith(maxMiss, nil)
}

// RefreshScanWith is RefreshScan with the read-only phase under caller
// control: the path-liveness probe of every Up LSP is independent of all
// the others, so a sharded host can stripe it across its worker pool. When
// each is non-nil it must invoke fn(i) exactly once for every i in [0, n)
// — concurrently if it likes — and return only when all calls finished.
// The mutating phase (miss counters, teardowns, events) stays serial and
// in LSP ID order, so the outcome is byte-identical to the serial scan no
// matter how the probe phase is scheduled.
func (p *Protocol) RefreshScanWith(maxMiss int, each func(n int, fn func(i int))) []int {
	if maxMiss <= 0 {
		maxMiss = DefaultRefreshMisses
	}
	all := p.LSPs()
	up := all[:0] // LSPs returns a fresh slice; filter it in place
	for _, l := range all {
		if l.State == Up {
			up = append(up, l)
		}
	}
	broken := make([]bool, len(up))
	probe := func(i int) { broken[i] = p.pathBroken(up[i]) }
	if each != nil {
		each(len(up), probe)
	} else {
		for i := range up {
			probe(i)
		}
	}
	var expired []int
	for i, l := range up {
		if l.State != Up {
			continue // torn down by an earlier commit this round
		}
		if !broken[i] {
			l.refreshMisses = 0
			continue
		}
		l.refreshMisses++
		if l.refreshMisses < maxMiss {
			continue
		}
		var detail string
		if p.OnEvent != nil {
			detail = fmt.Sprintf("%d refreshes missed on %s", l.refreshMisses, p.pathString(l.Path))
		}
		p.teardown(l.ID, false)
		p.Timeouts++
		expired = append(expired, l.ID)
		p.emit(Event{Kind: EventRefreshTimeout, LSPID: l.ID, Name: l.Name,
			Ingress: l.Ingress, Egress: l.Egress, Bandwidth: l.Bandwidth, Detail: detail})
	}
	return expired
}

// pathBroken reports whether any link of the LSP's path is down.
func (p *Protocol) pathBroken(l *LSP) bool {
	for _, lid := range l.Path.Links {
		if p.G.Link(lid).Down {
			return true
		}
	}
	return false
}
