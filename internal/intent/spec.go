// Package intent is the northbound declarative service layer: customers'
// VPN/SLA/site/tunnel desires as versioned specs (this file), a store of
// the currently-desired state (store.go), and a reconciler that drives the
// backbone toward it through transactional netconf sessions
// (reconcile.go). The paper's §2.1 argues per-site hand provisioning
// cannot scale; here one spec line can declare a thousand VPNs and the
// reconciler compiles the difference into batched control-plane commits.
//
// Spec language (lexical rules, value kinds and errors: internal/dsl):
//
//	intent <name> version=<n>        (first directive, exactly once)
//	vpn    <name> [sla=<class>]
//	site   <vpn> <name> <pe> <prefix> [hosts=N] [shape=BW] [backup=PE] [bw=BW] [delay=D]
//	tunnel <vpn> <name> <ingress> <egress> <bw> [class=<class>]
//	bulk   <prefix> count=<n> pes=<a,b,c> base=<cidr> [sites=<k>] [sla=<class>] [bw=BW]
//
// bulk expands at parse time into count VPNs named <prefix>-0001 ...,
// each with k sites (default 2) attached round-robin over the listed PEs,
// their /24 prefixes carved consecutively out of base. site takes
// netconf's site grammar (netconf.ParseSite).
package intent

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/core"
	"mplsvpn/internal/dsl"
	"mplsvpn/internal/netconf"
	"mplsvpn/internal/qos"
)

// Limits a spec must respect: a typo in a bulk count must not declare a
// million VPNs.
const (
	maxBulkCount   = 65536
	maxSitesPerVPN = 64
	maxSpecVPNs    = 100000
)

// VPNSpec is the desired state of one VPN: its SLA, sites, and tunnels.
type VPNSpec struct {
	Name    string
	SLA     qos.Class // -1 = honour customer DSCP
	Sites   []core.SiteSpec
	Tunnels []netconf.TunnelSpec
}

// Spec is one named, versioned intent document.
type Spec struct {
	Name    string
	Version int
	VPNs    []VPNSpec // declaration order; names unique
}

// Parse reads a spec from r (name is used in error messages only). Every
// error is a *dsl.Error at the offending line.
func Parse(r io.Reader, name string) (*Spec, error) {
	sp := &Spec{}
	byName := make(map[string]*VPNSpec)
	siteNames := make(map[string]string)   // site -> vpn
	tunnelNames := make(map[string]string) // tunnel -> vpn

	end, err := dsl.Scan(r, name, func(ln *dsl.Line) error {
		f := ln.Fields
		if sp.Name == "" && f[0] != "intent" {
			return errors.New("spec must start with: intent <name> version=<n>")
		}
		switch f[0] {
		case "intent":
			if sp.Name != "" {
				return errors.New("duplicate intent directive")
			}
			if len(f) != 3 {
				return errors.New("intent <name> version=<n>")
			}
			if err := (dsl.Options{"version": dsl.SetInt(&sp.Version, 1, math.MaxInt)}).Apply(f[0], f[2:]); err != nil {
				return err
			}
			sp.Name = f[1]
		case "vpn":
			if len(f) < 2 || len(f) > 3 {
				return errors.New("vpn <name> [sla=<class>]")
			}
			vs := VPNSpec{Name: f[1], SLA: -1}
			if err := (dsl.Options{"sla": dsl.Set(&vs.SLA, class)}).Apply(f[0], f[2:]); err != nil {
				return err
			}
			return addVPN(sp, byName, vs)
		case "site":
			spec, err := netconf.ParseSite(f)
			if err != nil {
				return err
			}
			vs, ok := byName[spec.VPN]
			if !ok {
				return fmt.Errorf("site %q references undeclared VPN %q", spec.Name, spec.VPN)
			}
			if owner, dup := siteNames[spec.Name]; dup {
				return fmt.Errorf("site %q already declared (in VPN %q)", spec.Name, owner)
			}
			if len(vs.Sites) >= maxSitesPerVPN {
				return fmt.Errorf("VPN %q exceeds %d sites", vs.Name, maxSitesPerVPN)
			}
			siteNames[spec.Name] = spec.VPN
			vs.Sites = append(vs.Sites, spec)
		case "tunnel":
			if len(f) < 6 || len(f) > 7 {
				return errors.New("tunnel <vpn> <name> <ingress> <egress> <bw> [class=<class>]")
			}
			vs, ok := byName[f[1]]
			if !ok {
				return fmt.Errorf("tunnel %q references undeclared VPN %q", f[2], f[1])
			}
			bw, err := dsl.Bandwidth("bandwidth", f[5])
			if err != nil {
				return err
			}
			t := netconf.TunnelSpec{VPN: f[1], Name: f[2], Ingress: f[3], Egress: f[4], Bandwidth: bw, Class: -1}
			if err := (dsl.Options{"class": dsl.Set(&t.Class, class)}).Apply(f[0], f[6:]); err != nil {
				return err
			}
			if owner, dup := tunnelNames[t.Name]; dup {
				return fmt.Errorf("tunnel %q already declared (in VPN %q)", t.Name, owner)
			}
			tunnelNames[t.Name] = t.VPN
			vs.Tunnels = append(vs.Tunnels, t)
		case "bulk":
			return expandBulk(sp, byName, siteNames, f)
		default:
			return fmt.Errorf("unknown directive %q", f[0])
		}
		return nil
	})
	if err == nil && sp.Name == "" {
		err = end.At(errors.New("empty spec (no intent directive)"))
	}
	if err != nil {
		return nil, err
	}
	return sp, nil
}

// class reads a class name as the forwarding class it selects.
func class(_, s string) (qos.Class, error) {
	d, err := dsl.Class(s)
	return qos.ClassForDSCP(d), err
}

func addVPN(sp *Spec, byName map[string]*VPNSpec, vs VPNSpec) error {
	if vs.Name == "" {
		return fmt.Errorf("VPN needs a name")
	}
	if _, dup := byName[vs.Name]; dup {
		return fmt.Errorf("VPN %q already declared", vs.Name)
	}
	if len(sp.VPNs) >= maxSpecVPNs {
		return fmt.Errorf("spec exceeds %d VPNs", maxSpecVPNs)
	}
	sp.VPNs = append(sp.VPNs, vs)
	byName[vs.Name] = &sp.VPNs[len(sp.VPNs)-1]
	return nil
}

// expandBulk turns one bulk directive into count fully-specified VPNs.
func expandBulk(sp *Spec, byName map[string]*VPNSpec, siteNames map[string]string, f []string) error {
	if len(f) < 5 {
		return errors.New("bulk <prefix> count=<n> pes=<a,b,c> base=<cidr> [sites=<k>] [sla=<class>] [bw=BW]")
	}
	prefix := f[1]
	count, sites := 0, 2
	var pes []string
	var base addr.Prefix
	baseSet := false
	sla := qos.Class(-1)
	accessBw := 0.0
	err := dsl.Options{
		"count": dsl.SetInt(&count, 1, maxBulkCount),
		"pes": func(_, v string) error {
			pes = strings.Split(v, ",")
			if slices.Contains(pes, "") {
				return fmt.Errorf("empty PE name in pes=%q", v)
			}
			return nil
		},
		"base": func(_, v string) (err error) {
			if base, err = addr.ParsePrefix(v); err != nil {
				return fmt.Errorf("bad base %q: %v", v, err)
			}
			if base.Len > 24 {
				return fmt.Errorf("base %q must be /24 or shorter", v)
			}
			baseSet = true
			return nil
		},
		"sites": dsl.SetInt(&sites, 1, maxSitesPerVPN),
		"sla":   dsl.Set(&sla, class),
		"bw":    dsl.Set(&accessBw, dsl.Bandwidth),
	}.Apply(f[0], f[2:])
	if err != nil {
		return err
	}
	if count == 0 || len(pes) == 0 || !baseSet {
		return errors.New("bulk needs count=, pes=, and base=")
	}
	capacity := 1 << (24 - base.Len)
	if count*sites > capacity {
		return fmt.Errorf("bulk needs %d /24s but base has room for %d", count*sites, capacity)
	}
	slot := 0
	for i := 0; i < count; i++ {
		vs := VPNSpec{Name: fmt.Sprintf("%s-%04d", prefix, i+1), SLA: sla}
		for s := 0; s < sites; s++ {
			sitePfx := addr.Prefix{Addr: base.Addr + addr.IPv4(slot<<8), Len: 24}
			slot++
			spec := core.SiteSpec{
				VPN:      vs.Name,
				Name:     fmt.Sprintf("%s-s%d", vs.Name, s+1),
				PE:       pes[(i+s)%len(pes)],
				Prefixes: []addr.Prefix{sitePfx},
				AccessBw: accessBw,
			}
			if owner, dup := siteNames[spec.Name]; dup {
				return fmt.Errorf("bulk site %q collides with site in VPN %q", spec.Name, owner)
			}
			siteNames[spec.Name] = vs.Name
			vs.Sites = append(vs.Sites, spec)
		}
		if err := addVPN(sp, byName, vs); err != nil {
			return err
		}
	}
	return nil
}

// Render writes the spec back in canonical (fully expanded) form: the
// output reparses into a deeply equal Spec — the round-trip contract
// FuzzIntentSpec enforces.
func (sp *Spec) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "intent %s version=%d\n", sp.Name, sp.Version)
	for _, vs := range sp.VPNs {
		if vs.SLA >= 0 {
			fmt.Fprintf(&b, "vpn %s sla=%s\n", vs.Name, dsl.ClassName(qos.DSCPForClass(vs.SLA)))
		} else {
			fmt.Fprintf(&b, "vpn %s\n", vs.Name)
		}
		for _, s := range vs.Sites {
			fmt.Fprintf(&b, "site %s %s %s %s", s.VPN, s.Name, s.PE, s.Prefixes[0])
			if s.Hosts > 0 {
				fmt.Fprintf(&b, " hosts=%d", s.Hosts)
			}
			if s.ShapeRate > 0 {
				fmt.Fprintf(&b, " shape=%s", renderBw(s.ShapeRate))
			}
			if s.BackupPE != "" {
				fmt.Fprintf(&b, " backup=%s", s.BackupPE)
			}
			if s.AccessBw > 0 {
				fmt.Fprintf(&b, " bw=%s", renderBw(s.AccessBw))
			}
			if s.AccessDelay > 0 {
				fmt.Fprintf(&b, " delay=%s", time.Duration(s.AccessDelay))
			}
			b.WriteByte('\n')
		}
		for _, t := range vs.Tunnels {
			fmt.Fprintf(&b, "tunnel %s %s %s %s %s", t.VPN, t.Name, t.Ingress, t.Egress, renderBw(t.Bandwidth))
			if t.Class >= 0 {
				fmt.Fprintf(&b, " class=%s", dsl.ClassName(qos.DSCPForClass(t.Class)))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Validate applies the spec-level invariants that do not need a backbone:
// it is what Store.Put enforces before accepting a version.
func (sp *Spec) Validate() error {
	if sp.Name == "" || sp.Version < 1 {
		return fmt.Errorf("intent: spec needs a name and version >= 1")
	}
	vpns := make(map[string]bool, len(sp.VPNs))
	sites := make(map[string]bool)
	tunnels := make(map[string]bool)
	for _, vs := range sp.VPNs {
		if vs.Name == "" {
			return fmt.Errorf("intent: VPN needs a name")
		}
		if vpns[vs.Name] {
			return fmt.Errorf("intent: duplicate VPN %q", vs.Name)
		}
		vpns[vs.Name] = true
		for _, s := range vs.Sites {
			if s.Name == "" || s.VPN != vs.Name || len(s.Prefixes) == 0 || s.PE == "" {
				return fmt.Errorf("intent: malformed site %q in VPN %q", s.Name, vs.Name)
			}
			if sites[s.Name] {
				return fmt.Errorf("intent: duplicate site %q", s.Name)
			}
			sites[s.Name] = true
		}
		for _, t := range vs.Tunnels {
			if t.Name == "" || t.VPN != vs.Name || !(t.Bandwidth > 0) {
				return fmt.Errorf("intent: malformed tunnel %q in VPN %q", t.Name, vs.Name)
			}
			if tunnels[t.Name] {
				return fmt.Errorf("intent: duplicate tunnel %q", t.Name)
			}
			tunnels[t.Name] = true
		}
	}
	return nil
}

// renderBw renders bits/s with the largest exact suffix.
func renderBw(bw float64) string {
	switch {
	case bw >= 1e9 && bw == float64(int64(bw/1e9))*1e9:
		return fmt.Sprintf("%dG", int64(bw/1e9))
	case bw >= 1e6 && bw == float64(int64(bw/1e6))*1e6:
		return fmt.Sprintf("%dM", int64(bw/1e6))
	case bw >= 1e3 && bw == float64(int64(bw/1e3))*1e3:
		return fmt.Sprintf("%dK", int64(bw/1e3))
	}
	return strconv.FormatFloat(bw, 'g', -1, 64)
}
