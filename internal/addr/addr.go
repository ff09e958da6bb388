// Package addr implements the addressing substrate for the MPLS VPN system:
// IPv4 addresses and prefixes, a longest-prefix-match radix trie, and the
// BGP/MPLS VPN identifiers from RFC 2547 — route distinguishers, route
// targets, and VPN-IPv4 addresses.
//
// Customer sites in different VPNs may use overlapping private address
// space (the paper's §4.2: "these addresses ... may in fact overlap with
// other address spaces"); the RD mechanism is what keeps them distinct
// inside the provider's single routing system.
package addr

import (
	"fmt"
	"strconv"
	"strings"
)

// IPv4 is an IPv4 address held as a host-order uint32. A plain integer type
// keeps it comparable, usable as a map key, and allocation-free.
type IPv4 uint32

// MustParseIPv4 parses a dotted-quad string and panics on error. Intended
// for literals in tests and topology builders.
func MustParseIPv4(s string) IPv4 {
	ip, err := ParseIPv4(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// ParseIPv4 parses a dotted-quad address like "10.1.2.3".
func ParseIPv4(s string) (IPv4, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("addr: %q is not a dotted quad", s)
	}
	var ip uint32
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, fmt.Errorf("addr: bad octet %q in %q", p, s)
		}
		ip = ip<<8 | uint32(v)
	}
	return IPv4(ip), nil
}

// String formats the address as a dotted quad.
func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Prefix is an IPv4 CIDR prefix. Addr is stored with host bits zeroed.
type Prefix struct {
	Addr IPv4
	Len  uint8
}

// MustParsePrefix parses "a.b.c.d/len" and panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses a CIDR string like "10.0.0.0/8".
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("addr: %q has no '/'", s)
	}
	ip, err := ParseIPv4(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	n, err := strconv.Atoi(s[slash+1:])
	if err != nil || n < 0 || n > 32 {
		return Prefix{}, fmt.Errorf("addr: bad prefix length in %q", s)
	}
	return NewPrefix(ip, uint8(n)), nil
}

// NewPrefix builds a prefix, masking host bits off addr.
func NewPrefix(addr IPv4, length uint8) Prefix {
	if length > 32 {
		panic("addr: prefix length > 32")
	}
	return Prefix{Addr: addr & IPv4(mask(length)), Len: length}
}

// HostPrefix returns the /32 prefix covering exactly ip.
func HostPrefix(ip IPv4) Prefix { return Prefix{Addr: ip, Len: 32} }

func mask(length uint8) uint32 {
	if length == 0 {
		return 0
	}
	return ^uint32(0) << (32 - length)
}

// Contains reports whether ip falls within the prefix.
func (p Prefix) Contains(ip IPv4) bool {
	return uint32(ip)&mask(p.Len) == uint32(p.Addr)
}

// Overlaps reports whether two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.Len <= q.Len {
		return p.Contains(q.Addr)
	}
	return q.Contains(p.Addr)
}

// String formats the prefix in CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr, p.Len)
}

// RouteDistinguisher disambiguates customer routes with overlapping address
// space inside the provider's routing system (RFC 2547 §4.1). We model the
// type-0 form: a 2-byte administrator and a 4-byte assigned number.
type RouteDistinguisher struct {
	Admin    uint16
	Assigned uint32
}

// String formats the RD as "admin:assigned".
func (rd RouteDistinguisher) String() string {
	return fmt.Sprintf("%d:%d", rd.Admin, rd.Assigned)
}

// Encode packs the RD into its 8-byte wire representation.
func (rd RouteDistinguisher) Encode() [8]byte {
	var b [8]byte
	// Type 0: two bytes of zero, then admin, then assigned.
	b[2] = byte(rd.Admin >> 8)
	b[3] = byte(rd.Admin)
	b[4] = byte(rd.Assigned >> 24)
	b[5] = byte(rd.Assigned >> 16)
	b[6] = byte(rd.Assigned >> 8)
	b[7] = byte(rd.Assigned)
	return b
}

// DecodeRD reconstructs a route distinguisher from its wire form.
func DecodeRD(b [8]byte) (RouteDistinguisher, error) {
	if b[0] != 0 || b[1] != 0 {
		return RouteDistinguisher{}, fmt.Errorf("addr: unsupported RD type %d", uint16(b[0])<<8|uint16(b[1]))
	}
	return RouteDistinguisher{
		Admin:    uint16(b[2])<<8 | uint16(b[3]),
		Assigned: uint32(b[4])<<24 | uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7]),
	}, nil
}

// RouteTarget is the extended community controlling which VRFs import a
// route (RFC 2547 §4.3.1). Same structure as an RD but different semantics:
// RDs make routes unique, RTs define VPN membership.
type RouteTarget struct {
	Admin    uint16
	Assigned uint32
}

// String formats the RT as "target:admin:assigned".
func (rt RouteTarget) String() string {
	return fmt.Sprintf("target:%d:%d", rt.Admin, rt.Assigned)
}

// VPNPrefix is a VPN-IPv4 address: an RD concatenated with an IPv4 prefix.
// Two customers can both announce 10.0.0.0/8, and their VPN-IPv4 forms stay
// distinct because the RDs differ.
type VPNPrefix struct {
	RD     RouteDistinguisher
	Prefix Prefix
}

// String formats the VPN-IPv4 prefix as "rd:prefix".
func (v VPNPrefix) String() string {
	return fmt.Sprintf("%s:%s", v.RD, v.Prefix)
}

// Less is a structural total order over VPN-IPv4 prefixes (RD, then
// address, then length). Sorting hot paths use it instead of comparing
// String() forms, which allocates twice per comparison.
func (v VPNPrefix) Less(o VPNPrefix) bool {
	if v.RD.Admin != o.RD.Admin {
		return v.RD.Admin < o.RD.Admin
	}
	if v.RD.Assigned != o.RD.Assigned {
		return v.RD.Assigned < o.RD.Assigned
	}
	if v.Prefix.Addr != o.Prefix.Addr {
		return v.Prefix.Addr < o.Prefix.Addr
	}
	return v.Prefix.Len < o.Prefix.Len
}
