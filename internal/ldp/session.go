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

import "mplsvpn/internal/topo"

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
	if r := p.idx.Of(n); r >= 0 {
		return p.sessions[r]
	}
	return SessionUp
}

// MarkSession sets n's adjacency state without counting a flap — used to
// re-apply session state to the fresh protocol instance a full-branch
// reconvergence builds.
func (p *Protocol) MarkSession(n topo.NodeID, st SessState) {
	if r := p.idx.Of(n); r >= 0 {
		p.sessions[r] = st
	}
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
	r := p.idx.Of(n)
	for _, sp := range p.Speakers {
		if sp.Node == n {
			continue
		}
		count := 0
		for _, row := range sp.fromNeighbor {
			if _, ok := find(row, r); ok {
				count++
			}
		}
		if count > 0 {
			out = append(out, PeerImpact{Peer: sp.Node, Bindings: count})
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
	total := 0
	for _, sp := range p.Speakers {
		for _, row := range sp.fromNeighbor {
			for _, b := range row {
				if p.sessions[b.from] == SessionRestarting {
					total++
				}
			}
		}
	}
	return total
}
