// Package netconf provisions a core.Backbone through NETCONF-style
// sessions, and reads cmd/vpnctl's plain-text network description onto one.
//
// A session stages ops into a candidate batch, validates it against the
// running state, and commits it — finally, or as a confirmed commit that
// rolls back unless confirmed within a timeout (RFC 6241 §8.4, the safety
// net that saves an operator who provisions themselves off the box). A
// commit is transactional: applyOp applies each op and returns its
// inverse, and if an op fails the inverses of the applied prefix go back
// through applyOp in reverse order. One BGP convergence runs per commit,
// whatever the batch size.
//
// A config file is topology, service, traffic and events, one directive
// per line. Its vpn, site and telsp lines compile to ops, each validated at
// its line, that commit through one session at the first flow line after
// them and at the end of the input; a failed commit is reported at the
// line of the op that failed.
//
// Directives (lexical rules, value kinds and errors: internal/dsl):
//
//	pe   <name>
//	p    <name>
//	link <a> <b> <bw> <delay> <metric>
//	vpn  <name> [sla=<class>]
//	site <vpn> <site> <pe> <prefix> [hosts=N] [shape=BW] [backup=PE] [bw=BW] [delay=D]
//	telsp <name> <ingress> <egress> <bw> [<class>]
//	flow <name> <from> <to> <port> <class> cbr <payload> <interval>
//	flow <name> <from> <to> <port> <class> poisson <payload> <pkt/s>
//	flow <name> <from> <to> <port> <class> onoff <payload> <interval> <meanOn> <meanOff>
//	flow <name> <from> <to> <port> <class> aimd <payload>
//	fail <a> <b> <at> <detect>
//	restore <a> <b> <at> <detect>
//	trace <from-site> <dst-ip> [<class>]
//	sla <flow> [p99=D] [p50=D] [loss=F] [jitter=D] [mos=F] [kbps=F]
//	routereflector <node>        (before any vpn/site)
//	dste <fraction>              (before any vpn/site)
//	run  <duration>
package netconf

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/core"
	"mplsvpn/internal/dsl"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/stats"
	"mplsvpn/internal/trafgen"
)

// TraceReq is a deferred control-plane traceroute request.
type TraceReq struct {
	Site string
	Dst  addr.IPv4
	DSCP packet.DSCP
}

// Scenario is a loaded configuration: the provisioned backbone with its
// workload already scheduled on the engine. Run it with
// s.B.Net.RunUntil(s.Duration + slack).
type Scenario struct {
	B        *core.Backbone
	Flows    []*trafgen.Flow
	Traces   []TraceReq
	Duration sim.Time
	// TELSPs records the tunnels established by telsp directives.
	TELSPs []*rsvp.LSP
	// SLAs are compliance targets evaluated after the run, keyed by flow
	// name (Evaluate them against the matching Flow's Stats).
	SLAs map[string]stats.SLATarget
}

// Load parses the configuration from r (name is used in error messages)
// and provisions a backbone with the given base config. The returned
// scenario's engine holds all scheduled traffic and events. Every error is
// a *dsl.Error at the offending line; one the core refused keeps the
// core's *ProvisionError as its cause.
func Load(r io.Reader, name string, cfg core.Config) (*Scenario, error) {
	b := core.NewBackbone(cfg)
	sc := &Scenario{B: b, Duration: 5 * sim.Second, SLAs: map[string]stats.SLATarget{}}
	sess, _ := NewServer(b).Open(name) // a new server has no ID in use
	var (
		v       *validateView // set once the provider is built
		lines   []int         // the line of each staged op
		tunnels []string      // telsp names, in line order
	)
	build := func() error {
		if v != nil {
			return nil
		}
		v = newValidateView(b)
		return capture(b.BuildProvider)
	}
	stage := func(ln *dsl.Line, ops ...Op) error {
		if err := build(); err != nil {
			return err
		}
		for _, op := range ops {
			if err := v.check(op); err != nil {
				return err
			}
			sess.Stage(op) // never closed, so never refused
			lines = append(lines, ln.N)
		}
		return nil
	}
	commit := func() error {
		if len(lines) == 0 {
			return nil
		}
		err := sess.Commit()
		var ce *CommitError
		if errors.As(err, &ce) {
			return (&dsl.Line{File: name, N: lines[ce.Index]}).At(fmt.Errorf("%s: %w", ce.Op, ce.Cause))
		}
		lines = lines[:0]
		return err
	}

	end, err := dsl.Scan(r, name, func(ln *dsl.Line) error {
		f := ln.Fields
		switch f[0] {
		case "routereflector":
			if len(f) != 2 || v != nil {
				return errors.New("routereflector <node> (before any vpn/site)")
			}
			b.Cfg.RouteReflector = f[1]
		case "dste":
			if len(f) != 2 || v != nil {
				return errors.New("dste <fraction> (before any vpn/site)")
			}
			fr, err := dsl.Float("dste fraction", f[1], 0, 1)
			b.Cfg.DSTEPremiumFraction = fr
			return err
		case "sla":
			if len(f) < 3 {
				return errors.New("sla <flow> [p99=D] [p50=D] [loss=F] [jitter=D] [mos=F] [kbps=F]")
			}
			t := stats.SLATarget{Name: f[1]}
			err := dsl.Options{
				"p99": millis(&t.MaxP99Ms), "p50": millis(&t.MaxP50Ms), "jitter": millis(&t.MaxJitterMs),
				"loss": dsl.SetFloat(&t.MaxLoss, 0, 1),
				"mos":  dsl.SetFloat(&t.MinMOS, 0, 5),
				"kbps": dsl.SetFloat(&t.MinKbps, 0, math.MaxFloat64),
			}.Apply("sla", f[2:])
			sc.SLAs[f[1]] = t
			return err
		case "trace":
			if len(f) < 3 || len(f) > 4 {
				return errors.New("trace <from-site> <dst-ip> [<class>]")
			}
			ip, err := addr.ParseIPv4(f[2])
			if err != nil {
				return fmt.Errorf("bad address: %v", err)
			}
			var dscp packet.DSCP
			if len(f) == 4 {
				if dscp, err = dsl.Class(f[3]); err != nil {
					return err
				}
			}
			sc.Traces = append(sc.Traces, TraceReq{Site: f[1], Dst: ip, DSCP: dscp})
		case "fail", "restore":
			if len(f) != 5 {
				return fmt.Errorf("%s <a> <b> <at> <detect>", f[0])
			}
			if err := build(); err != nil {
				return err
			}
			at, err := dsl.Duration("time", f[3])
			if err != nil {
				return err
			}
			detect, err := dsl.Duration("detect delay", f[4])
			if err != nil {
				return err
			}
			flap := &scriptedFlap{b.RestoreLink, f[1], f[2], detect}
			if f[0] == "fail" {
				flap.apply = b.FailLink
			}
			b.E.Post(at, b.RegisterSource(flap))
		case "pe", "p":
			if len(f) != 2 {
				return fmt.Errorf("%s needs a name", f[0])
			}
			add := b.AddPE
			if f[0] == "p" {
				add = b.AddP
			}
			return capture(func() { add(f[1]) })
		case "link":
			if len(f) != 6 {
				return errors.New("link <a> <b> <bw> <delay> <metric>")
			}
			bw, err := dsl.Bandwidth("bandwidth", f[3])
			if err != nil {
				return err
			}
			d, err := dsl.Duration("delay", f[4])
			if err != nil {
				return err
			}
			m, err := dsl.Int("metric", f[5], 1, math.MaxInt)
			if err != nil {
				return err
			}
			return capture(func() { b.Link(f[1], f[2], bw, d, m) })
		case "vpn":
			if len(f) < 2 || len(f) > 3 {
				return errors.New("vpn <name> [sla=<class>]")
			}
			ops := []Op{{Kind: OpDefineVPN, VPN: f[1]}}
			err := dsl.Options{"sla": func(_, class string) error {
				d, err := dsl.Class(class)
				ops = append(ops, Op{Kind: OpSetVPNSLA, VPN: f[1], SLA: qos.ClassForDSCP(d)})
				return err
			}}.Apply("vpn", f[2:])
			if err != nil {
				return err
			}
			return stage(ln, ops...)
		case "site":
			spec, err := ParseSite(f)
			if err != nil {
				return err
			}
			return stage(ln, Op{Kind: OpAddSite, Site: spec})
		case "telsp":
			if len(f) < 5 {
				return errors.New("telsp <name> <ingress> <egress> <bw> [<class>]")
			}
			t := TunnelSpec{Name: f[1], Ingress: f[2], Egress: f[3], Class: -1}
			var err error
			if t.Bandwidth, err = dsl.Bandwidth("bandwidth", f[4]); err != nil {
				return err
			}
			if len(f) == 6 {
				d, err := dsl.Class(f[5])
				if err != nil {
					return err
				}
				t.Class = qos.ClassForDSCP(d)
			}
			tunnels = append(tunnels, t.Name)
			return stage(ln, Op{Kind: OpSetupTunnel, Tunnel: t})
		case "flow":
			if len(f) < 8 {
				return errors.New("flow <name> <from> <to> <port> <class> cbr|poisson|onoff|aimd ...")
			}
			if err := build(); err != nil {
				return err
			}
			if err := commit(); err != nil {
				return err
			}
			return sc.addFlow(f)
		case "run":
			if len(f) != 2 {
				return errors.New("run <duration>")
			}
			d, err := dsl.PositiveDuration("duration", f[1])
			if err != nil {
				return err
			}
			sc.Duration = d
		default:
			return fmt.Errorf("unknown directive %q", f[0])
		}
		return nil
	})
	if err == nil {
		if err = build(); err == nil {
			err = commit()
		}
		err = end.At(err)
	}
	if err != nil {
		return nil, err
	}
	// The commit signalled each telsp line's tunnel, in line order, which
	// is ID order. (Without a telsp line, a PlainIP backbone has no RSVP.)
	if len(tunnels) > 0 {
		for _, l := range b.RSVP.LSPs() {
			if slices.Contains(tunnels, l.Name) {
				sc.TELSPs = append(sc.TELSPs, l)
			}
		}
	}
	return sc, nil
}

// scriptedFlap is a fail or restore line: a registered action, so a
// checkpoint with it pending re-arms it by registry index on a rebuild
// from the same file. Its State walks nothing: the rebuild's line is the
// same.
type scriptedFlap struct {
	apply  func(a, z string, detect sim.Time) error
	a, z   string
	detect sim.Time
}

// Run applies the line; a refusal (an unknown link, or one already in that
// state) changes nothing and has no caller left to report to.
func (s *scriptedFlap) Run() { _ = s.apply(s.a, s.z, s.detect) }

func (*scriptedFlap) State(*snapshot.Codec) {}

// ParseSite reads the fields of a site directive, the one site grammar a
// config and an intent spec share:
//
//	site <vpn> <site> <pe> <prefix> [hosts=N] [shape=BW] [backup=PE] [bw=BW] [delay=D]
func ParseSite(f []string) (core.SiteSpec, error) {
	if len(f) < 5 {
		return core.SiteSpec{}, errors.New("site <vpn> <site> <pe> <prefix> [options]")
	}
	pfx, err := addr.ParsePrefix(f[4])
	if err != nil {
		return core.SiteSpec{}, fmt.Errorf("bad prefix: %v", err)
	}
	s := core.SiteSpec{VPN: f[1], Name: f[2], PE: f[3], Prefixes: []addr.Prefix{pfx}}
	err = dsl.Options{
		"hosts":  dsl.SetInt(&s.Hosts, 0, maxHosts),
		"shape":  dsl.Set(&s.ShapeRate, dsl.Bandwidth),
		"backup": func(_, v string) error { s.BackupPE = v; return nil },
		"bw":     dsl.Set(&s.AccessBw, dsl.Bandwidth),
		"delay":  dsl.Set(&s.AccessDelay, dsl.PositiveDuration),
	}.Apply("site", f[5:])
	return s, err
}

// millis is the option setter of an SLA delay bound, held in milliseconds.
func millis(p *float64) func(string, string) error {
	return func(k, v string) error {
		d, err := dsl.Duration(k, v)
		*p = float64(d) / float64(sim.Millisecond)
		return err
	}
}

// maxHosts bounds hosts= so a typo cannot provision a million routers.
const maxHosts = 1024

// maxPayload bounds flow payloads to the IPv4 datagram limit.
const maxPayload = 65535

// addFlow parses one flow directive and schedules its generator.
func (sc *Scenario) addFlow(f []string) error {
	b := sc.B
	port, err := dsl.Int("port", f[4], 0, 65535)
	if err != nil {
		return err
	}
	dscp, err := dsl.Class(f[5])
	if err != nil {
		return err
	}
	payload, err := dsl.Int("payload", f[7], 1, maxPayload)
	if err != nil {
		return err
	}
	fl, err := b.FlowBetween(f[1], f[2], f[3], uint16(port))
	if err != nil {
		return err
	}
	fl.DSCP = dscp
	switch f[6] {
	case "cbr":
		if len(f) != 9 {
			return errors.New("flow ... cbr <payload> <interval>")
		}
		iv, err := dsl.PositiveDuration("interval", f[8])
		if err != nil {
			return err
		}
		trafgen.CBR(b.Net, fl, payload, iv, 0, sc.Duration)
	case "poisson":
		if len(f) != 9 {
			return errors.New("flow ... poisson <payload> <pkt/s>")
		}
		rate, err := dsl.Float("rate", f[8], 0, 1e9)
		if err == nil && rate == 0 {
			err = fmt.Errorf("bad rate %q: must be > 0 pkt/s", f[8])
		}
		if err != nil {
			return err
		}
		trafgen.Poisson(b.Net, fl, payload, rate, 0, sc.Duration, b.E.Rand().Fork())
	case "onoff":
		if len(f) != 11 {
			return errors.New("flow ... onoff <payload> <interval> <meanOn> <meanOff>")
		}
		var d [3]sim.Time
		for i, name := range []string{"interval", "meanOn", "meanOff"} {
			if d[i], err = dsl.PositiveDuration(name, f[8+i]); err != nil {
				return err
			}
		}
		trafgen.OnOff(b.Net, fl, payload, d[0], d[1], d[2], 0, sc.Duration, b.E.Rand().Fork())
	case "aimd":
		if len(f) != 8 {
			return errors.New("flow ... aimd <payload>")
		}
		b.AttachAIMD(fl, payload, sc.Duration).Start(0)
	default:
		return fmt.Errorf("unknown pattern %q", f[6])
	}
	sc.Flows = append(sc.Flows, fl)
	return nil
}
