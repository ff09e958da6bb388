// LDP session lifecycle: a lightweight adjacency state machine layered on
// the converge model. When a neighbor's control plane dies, each surviving
// speaker counts the label bindings it learned from that neighbor; with
// graceful restart (RFC 3478 shape) those bindings — and the ILM/FTN state
// built from them — stay installed, so the data plane keeps switching on
// stale labels until the neighbor returns or the crash hardens into a
// reconvergence down the full branch, which builds a fresh instance. The
// states marked here outlive link-flap reconvergences with the instance;
// the per-link sessions those flaps take down and bring up are
// ApplyIGPDelta's business (delta.go).
package ldp

import (
	"sort"

	"mplsvpn/internal/topo"
)

// SessState is one adjacency's state as seen by the protocol instance.
type SessState int

// Adjacency states.
const (
	SessionUp SessState = iota
	SessionDownState
	SessionRestarting
)

func (s SessState) String() string {
	switch s {
	case SessionDownState:
		return "down"
	case SessionRestarting:
		return "restarting"
	}
	return "up"
}

// PeerImpact reports how one surviving neighbor is affected by a session
// event: the label bindings it learned from the flapped node.
type PeerImpact struct {
	Peer     topo.NodeID
	Bindings int
}

// SessionState returns the adjacency state of node n.
func (p *Protocol) SessionState(n topo.NodeID) SessState {
	if p.sessions == nil {
		return SessionUp
	}
	return p.sessions[n]
}

// MarkSession sets n's adjacency state without counting a flap — used to
// re-apply session state to the fresh protocol instance a full-branch
// reconvergence builds.
func (p *Protocol) MarkSession(n topo.NodeID, st SessState) {
	if p.sessions == nil {
		p.sessions = make(map[topo.NodeID]SessState)
	}
	if st == SessionUp {
		delete(p.sessions, n)
		return
	}
	p.sessions[n] = st
}

// SessionDown flaps node n's LDP adjacencies. The per-neighbor impact
// (bindings learned from n, retained stale under graceful restart) is
// returned sorted by neighbor. The binding and ILM state itself is left
// installed either way: with graceful restart that is the point
// (forwarding-state preservation); without it the caller follows up with
// a full-branch reconvergence that rebuilds the label plane.
func (p *Protocol) SessionDown(n topo.NodeID, graceful bool) []PeerImpact {
	st := SessionDownState
	if graceful {
		st = SessionRestarting
	}
	p.MarkSession(n, st)
	p.SessionFlaps++
	var out []PeerImpact
	for _, id := range p.sortedNodes() {
		if id == n {
			continue
		}
		count := 0
		for _, byN := range p.Speakers[id].fromNeighbor {
			if _, ok := byN[n]; ok {
				count++
			}
		}
		if count > 0 {
			out = append(out, PeerImpact{Peer: id, Bindings: count})
		}
	}
	if graceful {
		for _, im := range out {
			p.StaleBindings += im.Bindings
		}
	}
	return out
}

// SessionUp re-establishes node n's adjacencies; stale bindings are
// considered refreshed: the restarted neighbour re-advertises the labels it
// kept.
func (p *Protocol) SessionUp(n topo.NodeID) {
	p.MarkSession(n, SessionUp)
}

// StaleBindingCount returns the label bindings currently learned from
// restarting neighbors — the stale forwarding state the data plane is
// riding during graceful restart.
func (p *Protocol) StaleBindingCount() int {
	if len(p.sessions) == 0 {
		return 0
	}
	restarting := make([]topo.NodeID, 0, len(p.sessions))
	for n, st := range p.sessions {
		if st == SessionRestarting {
			restarting = append(restarting, n)
		}
	}
	sort.Slice(restarting, func(i, j int) bool { return restarting[i] < restarting[j] })
	total := 0
	for _, id := range p.sortedNodes() {
		sp := p.Speakers[id]
		for _, byN := range sp.fromNeighbor {
			for _, n := range restarting {
				if id == n {
					continue
				}
				if _, ok := byN[n]; ok {
					total++
				}
			}
		}
	}
	return total
}
