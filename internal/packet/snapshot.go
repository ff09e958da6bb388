package packet

import "mplsvpn/internal/snapshot"

// Min is the fewest bytes State writes: an unlabelled packet without ESP is
// nineteen one-byte varints (an empty VPN name included) and the ESP flag.
const Min = 20

// State walks an in-flight packet: headers, label stack, payload size, and
// timing metadata. A load fills p, typically fresh from a pool. The
// memoized flow hash and wire length are pure functions of the headers, so
// they are recomputed lazily afterwards rather than stored; freelist
// ownership is the allocating pool's business.
func State(c *snapshot.Codec, p *Packet) {
	if c.Loading() {
		*p = Packet{pooled: p.pooled}
	}
	snapshot.Uint(c, &p.IP.DSCP)
	snapshot.Uint(c, &p.IP.ECN)
	snapshot.Uint(c, &p.IP.TotalLen)
	snapshot.Uint(c, &p.IP.ID)
	snapshot.Uint(c, &p.IP.Flags)
	snapshot.Uint(c, &p.IP.FragOff)
	snapshot.Uint(c, &p.IP.TTL)
	snapshot.Uint(c, &p.IP.Protocol)
	snapshot.Uint(c, &p.IP.Src)
	snapshot.Uint(c, &p.IP.Dst)

	// Entries bottom-first, the storage order; each is three varints and
	// the S flag.
	d := c.Len(p.MPLS.Depth(), 4)
	if d > MaxLabelDepth {
		c.Corrupt("label stack of %d entries", d)
		return
	}
	p.MPLS.depth = int32(d)
	for i := 0; i < d; i++ {
		e := &p.MPLS.e[i]
		snapshot.Uint(c, &e.Label)
		snapshot.Uint(c, &e.EXP)
		c.Bool(&e.S)
		snapshot.Uint(c, &e.TTL)
	}

	snapshot.Uint(c, &p.L4.SrcPort)
	snapshot.Uint(c, &p.L4.DstPort)
	snapshot.Int(c, &p.Payload)

	if c.Has(p.ESP != nil) {
		if c.Loading() {
			p.ESP = &ESPInfo{}
		}
		snapshot.Uint(c, &p.ESP.SPI)
		snapshot.Uint(c, &p.ESP.SeqNum)
		snapshot.Uint(c, &p.ESP.InnerDSCP)
		snapshot.Uint(c, &p.ESP.InnerSrc)
		snapshot.Uint(c, &p.ESP.InnerDst)
		c.Bool(&p.ESP.InnerHidden)
		snapshot.Int(c, &p.ESP.AuthBytes)
		snapshot.Int(c, &p.ESP.PadBytes)
	}

	snapshot.Uint(c, &p.Seq)
	snapshot.Int(c, &p.SentAt)
	snapshot.Int(c, &p.EnqueuedAt)
	snapshot.Int(c, &p.Hops)
	c.Str(&p.OriginVPN)
}
