package trafgen

import (
	"mplsvpn/internal/netsim"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/stats"
)

// ReqResp models transactional traffic (the paper's "legacy systems and
// enterprise protocols" running over the VPN): a client sends requests; on
// delivery at the server the harness injects a response; round-trip time
// is sampled at the client. RTT is the metric interactive SLAs quote.
type ReqResp struct {
	Req  *Flow // client -> server direction
	Resp *Resp // server -> client direction metadata

	// RTT collects request->response round trips in milliseconds.
	RTT stats.Sample
	// Completed counts finished transactions; Outstanding those in flight.
	Completed int

	net     *netsim.Network
	pending map[uint64]sim.Time

	// The request pacer: ReqResp is its own self-reposting sim.Action on
	// the engine, like cbrSrc on a shard, so it satisfies Source and a
	// pending request timer survives a checkpoint.
	payload        int
	interval, stop sim.Time
	t              sim.Time // next send
}

// Resp describes the response direction: where responses are injected and
// how they are addressed.
type Resp struct {
	Flow    *Flow
	Payload int
}

// NewReqResp builds a transactional source. req carries requests from the
// client site; resp describes the reverse flow, injected at the server
// when a request arrives.
func NewReqResp(n *netsim.Network, req *Flow, resp *Flow, respPayload int) *ReqResp {
	return &ReqResp{
		Req:     req,
		Resp:    &Resp{Flow: resp, Payload: respPayload},
		net:     n,
		pending: make(map[uint64]sim.Time),
	}
}

// SendRequests issues requests of reqPayload bytes every interval from
// start to stop.
func (rr *ReqResp) SendRequests(reqPayload int, interval, start, stop sim.Time) {
	rr.payload, rr.interval, rr.stop, rr.t = reqPayload, interval, stop, start
	if start <= stop {
		rr.net.E.Post(start, rr)
	}
}

// Run sends one request and books the next.
func (rr *ReqResp) Run() {
	rr.Req.Stats.RecordSent()
	p := rr.Req.fill(rr.net.NewPacket(rr.Req.At), rr.payload)
	rr.pending[p.Seq] = rr.net.E.Now()
	rr.net.Inject(rr.Req.At, p)
	if rr.t += rr.interval; rr.t <= rr.stop {
		rr.net.E.Post(rr.t, rr)
	}
}

// HandleDelivery reacts to a delivered packet: a request triggers the
// response injection at the server; a response closes the transaction and
// samples the RTT. It reports whether the packet belonged to this
// exchange. Wire it to the network's delivery hook.
func (rr *ReqResp) HandleDelivery(p *packet.Packet) bool {
	switch p.FlowKey() {
	case flowKey(rr.Req):
		// Server side: answer with the same transaction sequence.
		rr.Resp.Flow.Stats.RecordSent()
		resp := rr.Resp.Flow.fill(rr.net.NewPacket(rr.Resp.Flow.At), rr.Resp.Payload)
		resp.Seq = p.Seq
		rr.net.Inject(rr.Resp.Flow.At, resp)
		return true
	case flowKey(rr.Resp.Flow):
		if sentAt, ok := rr.pending[p.Seq]; ok {
			delete(rr.pending, p.Seq)
			rr.RTT.AddDuration(rr.net.E.Now() - sentAt)
			rr.Completed++
		}
		return true
	}
	return false
}

// Outstanding returns the number of transactions awaiting a response.
func (rr *ReqResp) Outstanding() int { return len(rr.pending) }

func flowKey(f *Flow) packet.FlowKey {
	return packet.FlowKey{
		Src: f.Src, Dst: f.Dst,
		SrcPort: f.SrcPort, DstPort: f.DstPort, Protocol: f.Proto,
	}
}
