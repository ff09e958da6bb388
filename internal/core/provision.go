package core

import (
	"fmt"
	"sort"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/device"
	"mplsvpn/internal/ipsec"
	"mplsvpn/internal/mpls"
	"mplsvpn/internal/ospf"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/vpn"

	"mplsvpn/internal/sim"
)

// DefineVPN registers a VPN: it gets a fresh RD and a route target that is
// both its import and export policy (the common intranet case).
func (b *Backbone) DefineVPN(name string) {
	rt := addr.RouteTarget{Admin: b.Cfg.BGPAdmin, Assigned: b.nextRD}
	b.DefineVPNWithRTs(name,
		[]addr.RouteTarget{rt},
		[]addr.RouteTarget{rt})
}

// DefineVPNWithRTs registers a VPN with explicit import/export route
// targets — the extranet mechanism: an extranet VRF imports the RTs of the
// VPNs it bridges (§1's "linking customers and partners into extranets on
// an ad-hoc basis").
func (b *Backbone) DefineVPNWithRTs(name string, imports, exports []addr.RouteTarget) {
	if _, dup := b.vpns[name]; dup {
		panic(provErr(ProvDuplicateVPN, "vpn:"+name, "VPN %q already defined", name))
	}
	b.vpns[name] = &vpnConfig{
		Name:     name,
		RD:       addr.RouteDistinguisher{Admin: b.Cfg.BGPAdmin, Assigned: b.nextRD},
		Imports:  imports,
		Exports:  exports,
		SLAClass: -1,
	}
	b.nextRD++
}

// SetVPNSLA assigns a QoS level to an entire VPN (§2.2): all of its
// traffic is re-marked to class c at the provider edge. Pass class -1 to
// return to honouring the customer's own DSCP. Applies to VRFs created
// afterwards and to existing VRFs immediately.
func (b *Backbone) SetVPNSLA(name string, c qos.Class) {
	cfg, ok := b.vpns[name]
	if !ok {
		panic(provErr(ProvUnknownVPN, "vpn:"+name, "VPN %q not defined", name))
	}
	cfg.SLAClass = c
	for _, r := range b.routers {
		if v, ok := r.VRFs[name]; ok {
			v.SLAClass = int(c)
		}
	}
}

// RTOf returns the first export route target of a defined VPN (for
// building extranet import lists).
func (b *Backbone) RTOf(name string) addr.RouteTarget {
	cfg, ok := b.vpns[name]
	if !ok || len(cfg.Exports) == 0 {
		panic(provErr(ProvUnknownVPN, "vpn:"+name, "VPN %q not defined", name))
	}
	return cfg.Exports[0]
}

// UndefineVPN removes a VPN definition and sweeps its (empty) VRFs off
// every PE. A VPN with provisioned sites or live TE intents is refused —
// remove those first. When the VPN holds the most recently assigned RD it
// is reclaimed, so a define rolled back and re-applied in LIFO order gets
// the identical identity — part of the transactional digest-equality
// contract.
func (b *Backbone) UndefineVPN(name string) error {
	cfg, ok := b.vpns[name]
	if !ok {
		return provErr(ProvUnknownVPN, "vpn:"+name, "VPN %q not defined", name)
	}
	for _, rec := range b.sites {
		if rec.Spec.VPN == name {
			return provErr(ProvVPNInUse, "vpn:"+name,
				"VPN %q still has site %q provisioned", name, rec.Spec.Name)
		}
	}
	for _, req := range b.teRequests {
		if req.vpn == name {
			return provErr(ProvVPNInUse, "vpn:"+name,
				"VPN %q is still steered by TE intent %q", name, req.name)
		}
	}
	for _, id := range b.peNodes {
		b.routers[id].RemoveVRF(name)
	}
	delete(b.vpns, name)
	if cfg.RD.Assigned == b.nextRD-1 {
		b.nextRD--
	}
	return nil
}

// SiteSpec describes one customer site to provision.
type SiteSpec struct {
	VPN      string
	Name     string
	PE       string // attachment PE by name
	Prefixes []addr.Prefix

	// BackupPE, when set, dual-homes the site: a second access link to
	// this PE whose BGP exports carry a lower LocalPref, so the backbone
	// prefers the primary attachment and fails over when it dies
	// (FailSitePrimary).
	BackupPE string

	// Access link parameters (defaults: 100 Mb/s, 1 ms).
	AccessBw    float64
	AccessDelay sim.Time

	// ShapeRate, when positive, shapes the CE's upstream at this rate
	// (bits/s) with a token bucket — the customer's purchased access rate.
	ShapeRate float64

	// Hosts adds that many workstation nodes on a LAN behind the CE
	// (Fig. 3's PCs). Host k owns the address prefix.Addr + k + 1 and is
	// reachable through the CE; traffic can originate at hosts via
	// FlowBetweenHosts. With Hosts == 0 the CE itself terminates the site
	// prefix (the default, simplest model).
	Hosts int
	// LANBw is the host-CE link speed (default 1 Gb/s).
	LANBw float64

	// Classifier, when set, runs CBQ classification at the CE.
	Classifier *qos.Classifier
}

// AddSite provisions a site end to end: a CE node and access link, the VRF
// at the PE (created on first use), VPN labels for every site prefix with
// egress ILM entries, BGP export, and a membership announcement. Call
// ConvergeVPNs afterwards (sites may be added in batches).
func (b *Backbone) AddSite(spec SiteSpec) *device.Router {
	if !b.built {
		panic(provErr(ProvNotBuilt, "site:"+spec.Name, "BuildProvider before AddSite"))
	}
	cfg, ok := b.vpns[spec.VPN]
	if !ok {
		panic(provErr(ProvUnknownVPN, "vpn:"+spec.VPN, "VPN %q not defined", spec.VPN))
	}
	if _, dup := b.sites[spec.Name]; dup {
		panic(provErr(ProvDuplicateSite, "site:"+spec.Name, "site %q already provisioned", spec.Name))
	}
	if spec.AccessBw == 0 {
		spec.AccessBw = 100e6
	}
	if spec.AccessDelay == 0 {
		spec.AccessDelay = sim.Millisecond
	}

	peID := b.mustNode(spec.PE)
	pe := b.routers[peID]

	// A previously removed site of the same name left its physical
	// skeleton behind; revive it instead of growing the graph (node names
	// are unique forever). The spec must be shaped compatibly.
	if old, ok := b.retired[spec.Name]; ok {
		if err := b.skeletonCompatible(old, spec); err != nil {
			panic(err)
		}
		return b.reviveSite(old, spec, cfg, pe)
	}

	// CE node, router, and access link.
	ceID := b.G.AddNode("ce-" + spec.Name)
	ce := device.New(ceID, "ce-"+spec.Name, device.CE, ospf.Loopback(ceID))
	ce.Classifier = spec.Classifier
	ce.LocalPrefixes = addr.NewTable[bool]()
	for _, p := range spec.Prefixes {
		ce.LocalPrefixes.Insert(p, true)
	}
	b.routers[ceID] = ce
	b.Net.AddRouter(ce)
	ceToPE, peToCE := b.G.AddDuplexLink(ceID, peID, spec.AccessBw, spec.AccessDelay, 1)
	ce.IPTable.Insert(addr.Prefix{}, ceToPE) // default route up
	b.Net.SetScheduler(ceToPE, b.newScheduler())
	b.Net.SetScheduler(peToCE, b.newScheduler())

	// Workstations on the site LAN (Fig. 3). Each host owns one address;
	// the CE routes those /32s onto the LAN instead of delivering locally.
	var hostIDs []topo.NodeID
	if spec.Hosts > 0 {
		if spec.LANBw == 0 {
			spec.LANBw = 1e9
		}
		for k := 0; k < spec.Hosts; k++ {
			hname := fmt.Sprintf("host-%s-%d", spec.Name, k)
			hid := b.G.AddNode(hname)
			h := device.New(hid, hname, device.Host, ospf.Loopback(hid))
			hostAddr := spec.Prefixes[0].Addr + addr.IPv4(k+1)
			h.LocalPrefixes = addr.NewTable[bool]()
			h.LocalPrefixes.Insert(addr.HostPrefix(hostAddr), true)
			toCE, toHost := b.G.AddDuplexLink(hid, ceID, spec.LANBw, 100*sim.Microsecond, 1)
			h.IPTable.Insert(addr.Prefix{}, toCE)
			ce.IPTable.Insert(addr.HostPrefix(hostAddr), toHost)
			// The CE no longer terminates that address itself.
			b.routers[hid] = h
			b.Net.AddRouter(h)
			hostIDs = append(hostIDs, hid)
		}
	}

	if spec.ShapeRate > 0 {
		// Shape upstream to the purchased access rate (bucket = 4 MTU).
		b.Net.SetShaper(ceToPE, qos.NewTokenBucket(spec.ShapeRate/8, 4*1500))
	}

	rec := &siteRecord{
		Spec: spec, CE: ceID, PE: peID,
		ceToPE: ceToPE, peToCE: peToCE,
		labels: make(map[addr.Prefix]packet.Label),
		hosts:  hostIDs,
	}
	b.sites[spec.Name] = rec
	b.siteByCE[ceID] = rec
	for _, hid := range hostIDs {
		b.siteByCE[hid] = rec
	}
	for _, p := range spec.Prefixes {
		b.siteByPrefix.Insert(p, rec)
	}
	if b.tel != nil && spec.Classifier != nil {
		spec.Classifier.BindTelemetry(b.tel.Reg, "ce-"+spec.Name)
	}

	if b.Cfg.PlainIP {
		b.provisionPlainIPSite(rec)
	} else {
		b.provisionVPNSite(rec, cfg, pe)
		if spec.BackupPE != "" {
			b.provisionBackupAttachment(rec, cfg, true)
		}
	}

	// Membership discovery (§4.1).
	if err := b.Registry.Join(vpn.Site{
		Name: spec.Name, VPN: spec.VPN, PE: peID, Prefixes: spec.Prefixes,
	}); err != nil {
		panic(provErr(ProvMembership, "site:"+spec.Name, "%v", err))
	}
	return ce
}

// skeletonCompatible checks that a new spec can reuse a retired site's
// physical skeleton: every topology-shaping field must match, because the
// CE node, access links, and host LAN already exist with those parameters.
// Mutable service attributes (ShapeRate, Classifier, the owning VPN) may
// differ freely.
func (b *Backbone) skeletonCompatible(old *siteRecord, spec SiteSpec) error {
	o := old.Spec
	mismatch := func(field string) error {
		return provErr(ProvSkeletonMismatch, "site:"+spec.Name,
			"site %q was provisioned before with a different %s; its physical skeleton (CE, access links) cannot be reshaped", spec.Name, field)
	}
	switch {
	case o.PE != spec.PE:
		return mismatch("PE")
	case o.BackupPE != spec.BackupPE:
		return mismatch("backup PE")
	case o.AccessBw != spec.AccessBw || o.AccessDelay != spec.AccessDelay:
		return mismatch("access link")
	case o.Hosts != spec.Hosts || (spec.Hosts > 0 && o.LANBw != spec.LANBw && spec.LANBw != 0):
		return mismatch("host LAN")
	case len(o.Prefixes) != len(spec.Prefixes):
		return mismatch("prefix list")
	}
	for i, p := range o.Prefixes {
		if spec.Prefixes[i] != p {
			return mismatch("prefix list")
		}
	}
	return nil
}

// reviveSite re-provisions a retired site over its existing skeleton: the
// access link comes back up, fresh VPN labels and VRF state are installed,
// and membership is re-announced. Node and link IDs are exactly the ones
// the site had before, so a remove+add round-trip is digest-invisible.
func (b *Backbone) reviveSite(rec *siteRecord, spec SiteSpec, cfg *vpnConfig, pe *device.Router) *device.Router {
	if spec.Hosts > 0 && spec.LANBw == 0 {
		spec.LANBw = rec.Spec.LANBw
	}
	delete(b.retired, spec.Name)
	ce := b.routers[rec.CE]
	ce.Classifier = spec.Classifier
	ce.IPTable.Insert(addr.Prefix{}, rec.ceToPE) // default route back to the primary
	rec.Spec = spec
	rec.labels = make(map[addr.Prefix]packet.Label)
	rec.backupLabels = nil
	if !b.nodeDown[rec.PE] {
		b.G.SetLinkDown(rec.CE, rec.PE, false)
	}
	if spec.ShapeRate > 0 {
		b.Net.SetShaper(rec.ceToPE, qos.NewTokenBucket(spec.ShapeRate/8, 4*1500))
	} else {
		b.Net.SetShaper(rec.ceToPE, nil)
	}

	b.sites[spec.Name] = rec
	b.siteByCE[rec.CE] = rec
	for _, hid := range rec.hosts {
		b.siteByCE[hid] = rec
	}
	for _, p := range spec.Prefixes {
		b.siteByPrefix.Insert(p, rec)
	}
	if b.tel != nil && spec.Classifier != nil {
		spec.Classifier.BindTelemetry(b.tel.Reg, "ce-"+spec.Name)
	}

	if b.Cfg.PlainIP {
		b.provisionPlainIPSite(rec)
	} else {
		b.provisionVPNSite(rec, cfg, pe)
		if spec.BackupPE != "" {
			b.provisionBackupAttachment(rec, cfg, false)
		}
	}
	if err := b.Registry.Join(vpn.Site{
		Name: spec.Name, VPN: spec.VPN, PE: rec.PE, Prefixes: spec.Prefixes,
	}); err != nil {
		panic(provErr(ProvMembership, "site:"+spec.Name, "%v", err))
	}
	return ce
}

// provisionVPNSite does the RFC 2547 work at the PE.
func (b *Backbone) provisionVPNSite(rec *siteRecord, cfg *vpnConfig, pe *device.Router) {
	v, ok := pe.VRFs[cfg.Name]
	if !ok {
		v = vpn.NewVRF(cfg.Name, rec.PE, cfg.RD, cfg.Imports, cfg.Exports)
		v.SLAClass = int(cfg.SLAClass)
		pe.AddVRF(v)
	}
	pe.BindAccess(rec.ceToPE, cfg.Name)
	pe.BindSiteAccess(cfg.Name, rec.Spec.Name, rec.peToCE)

	alloc := b.allocs[rec.PE]
	exports := v.AttachSite(&vpn.Site{
		Name: rec.Spec.Name, VPN: cfg.Name, PE: rec.PE, Prefixes: rec.Spec.Prefixes,
	}, func(p addr.Prefix) packet.Label {
		l := alloc.Alloc()
		rec.labels[p] = l
		return l
	}, ospf.Loopback(rec.PE))

	// Egress data plane: the VPN label pops straight onto the site's
	// access link.
	for _, l := range rec.labels {
		pe.LFIB.BindILM(l, mpls.NHLFE{Op: mpls.OpPop, OutLink: rec.peToCE})
	}
	// Control plane: export into BGP.
	sp, ok := b.BGP.Speaker(rec.PE)
	if !ok {
		panic(provErr(ProvNoBGPSpeaker, "node:"+pe.Name, "PE %s has no BGP speaker", pe.Name))
	}
	for _, e := range exports {
		sp.Originate(e)
	}
}

// provisionBackupAttachment dual-homes a site: a second access link to the
// backup PE whose exports carry LocalPref 50 (primary exports carry 100),
// so remote PEs use the backup path only when the primary withdraws. With
// fresh false, the site is being revived and the backup access link
// already exists in the skeleton.
func (b *Backbone) provisionBackupAttachment(rec *siteRecord, cfg *vpnConfig, fresh bool) {
	peID := b.mustNode(rec.Spec.BackupPE)
	pe := b.routers[peID]
	if fresh {
		bw := rec.Spec.AccessBw
		delay := rec.Spec.AccessDelay
		ceToPE, peToCE := b.G.AddDuplexLink(rec.CE, peID, bw, delay, 1)
		b.Net.SetScheduler(ceToPE, b.newScheduler())
		b.Net.SetScheduler(peToCE, b.newScheduler())
		rec.backupCEToPE = ceToPE
		rec.backupPEToCE = peToCE
		rec.backupPE = peID
	} else if !b.nodeDown[peID] {
		b.G.SetLinkDown(rec.CE, peID, false)
	}

	v, ok := pe.VRFs[cfg.Name]
	if !ok {
		v = vpn.NewVRF(cfg.Name, peID, cfg.RD, cfg.Imports, cfg.Exports)
		v.SLAClass = int(cfg.SLAClass)
		pe.AddVRF(v)
	}
	pe.BindAccess(rec.backupCEToPE, cfg.Name)
	pe.BindSiteAccess(cfg.Name, rec.Spec.Name, rec.backupPEToCE)

	alloc := b.allocs[peID]
	rec.backupLabels = make(map[addr.Prefix]packet.Label)
	exports := v.AttachSite(&vpn.Site{
		Name: rec.Spec.Name, VPN: cfg.Name, PE: peID, Prefixes: rec.Spec.Prefixes,
	}, func(p addr.Prefix) packet.Label {
		l := alloc.Alloc()
		rec.backupLabels[p] = l
		return l
	}, ospf.Loopback(peID))
	for _, l := range rec.backupLabels {
		pe.LFIB.BindILM(l, mpls.NHLFE{Op: mpls.OpPop, OutLink: rec.backupPEToCE})
	}
	sp, ok := b.BGP.Speaker(peID)
	if !ok {
		panic(provErr(ProvNoBGPSpeaker, "node:"+pe.Name, "backup PE %s has no BGP speaker", pe.Name))
	}
	for _, e := range exports {
		e.LocalPref = 50 // primary (100) wins while it lives
		sp.Originate(e)
	}
}

// FailSitePrimary severs a dual-homed site's primary attachment: the
// access link drops, the primary PE withdraws the site's routes, the
// backbone reconverges onto the backup PE, and the CE repoints its default
// route at the backup link.
func (b *Backbone) FailSitePrimary(name string) error {
	rec, ok := b.sites[name]
	if !ok {
		return provErr(ProvUnknownSite, "site:"+name, "unknown site %q", name)
	}
	if rec.Spec.BackupPE == "" {
		return provErr(ProvSingleHomed, "site:"+name, "site %q is single-homed", name)
	}
	b.G.SetLinkDown(rec.CE, rec.PE, true)
	pe := b.routers[rec.PE]
	if v, ok := pe.VRFs[rec.Spec.VPN]; ok {
		for _, wp := range v.DetachSite(name) {
			if sp, ok := b.BGP.Speaker(rec.PE); ok {
				sp.WithdrawLocal(wp)
			}
		}
	}
	for _, l := range rec.labels {
		pe.LFIB.UnbindILM(l)
	}
	// CE repoints upstream.
	ce := b.routers[rec.CE]
	ce.IPTable.Insert(addr.Prefix{}, rec.backupCEToPE)
	b.ConvergeVPNs()
	return nil
}

// provisionPlainIPSite routes the site natively: every provider router and
// every other CE learns a static route toward the site's prefixes. This is
// the no-VPN baseline — note the absence of any isolation.
func (b *Backbone) provisionPlainIPSite(rec *siteRecord) {
	b.installPlainRoutes(rec)
	// Existing sites need routes to the new one and vice versa; recompute
	// all-pairs (cheap at experiment scale).
	for _, other := range b.sites {
		if other != rec {
			b.installPlainRoutes(other)
		}
	}
}

// installPlainRoutes makes rec's prefixes (and CE loopback) reachable from
// every router using shortest paths over the full graph.
func (b *Backbone) installPlainRoutes(rec *siteRecord) {
	spf := make(map[topo.NodeID]*topo.SPFResult)
	for id, r := range b.routers {
		if id == rec.CE {
			continue
		}
		res, ok := spf[id]
		if !ok {
			res = b.G.SPF(id)
			spf[id] = res
		}
		lid, ok := res.NextHop(b.G, rec.CE)
		if !ok {
			continue
		}
		for _, p := range rec.Spec.Prefixes {
			r.IPTable.Insert(p, lid)
		}
		r.IPTable.Insert(addr.HostPrefix(ospf.Loopback(rec.CE)), lid)
	}
}

// RemoveSite detaches a site: VRF withdrawal (primary and backup), BGP
// withdrawal, membership leave, and access teardown. The physical skeleton
// (CE node, access links, host LAN) is retired rather than destroyed —
// node and link IDs are immutable — so a later AddSite with a compatible
// spec revives it with identical identifiers and the remove+add round-trip
// is invisible in the StateDigest. ConvergeVPNs must run afterwards.
func (b *Backbone) RemoveSite(name string) error {
	rec, ok := b.sites[name]
	if !ok {
		return provErr(ProvUnknownSite, "site:"+name, "unknown site %q", name)
	}
	b.detachAttachment(rec, rec.PE, rec.labels, rec.ceToPE)
	if rec.Spec.BackupPE != "" {
		b.detachAttachment(rec, rec.backupPE, rec.backupLabels, rec.backupCEToPE)
		b.G.SetLinkDown(rec.CE, rec.backupPE, true)
	}
	b.G.SetLinkDown(rec.CE, rec.PE, true)
	b.Net.SetShaper(rec.ceToPE, nil)

	delete(b.sites, name)
	delete(b.siteByCE, rec.CE)
	for _, hid := range rec.hosts {
		delete(b.siteByCE, hid)
	}
	for _, p := range rec.Spec.Prefixes {
		b.siteByPrefix.Delete(p)
	}
	delete(b.cutSites, name)
	b.retired[name] = rec
	return b.Registry.Leave(rec.Spec.VPN, name)
}

// detachAttachment tears down one attachment (primary or backup) of a site
// at the given PE: VRF detach, BGP withdrawal, ILM unbinds, and the access
// bindings installed at provisioning time.
func (b *Backbone) detachAttachment(rec *siteRecord, peID topo.NodeID, labels map[addr.Prefix]packet.Label, inLink topo.LinkID) {
	pe := b.routers[peID]
	if pe == nil {
		return
	}
	if v, ok := pe.VRFs[rec.Spec.VPN]; ok {
		for _, wp := range v.DetachSite(rec.Spec.Name) {
			if sp, ok := b.BGP.Speaker(peID); ok {
				sp.WithdrawLocal(wp)
			}
		}
	}
	for _, l := range labels {
		pe.LFIB.UnbindILM(l)
	}
	pe.UnbindAccess(inLink)
	pe.UnbindSiteAccess(rec.Spec.VPN, rec.Spec.Name)
}

// ConvergeVPNs runs BGP to steady state and imports the resulting routes
// into every VRF (§4.2's reachability exchange).
func (b *Backbone) ConvergeVPNs() {
	if b.Cfg.PlainIP {
		return
	}
	b.declareRTInterest()
	b.BGP.Converge()
	b.importVRFs()
	if b.surv != nil {
		b.journalSuppressed()
	}
}

// declareRTInterest publishes each PE's route-target interest — the union
// of its VRFs' import targets — to the BGP mesh. Under clustered route
// reflection the reflectors use these declarations for RT-constrained
// distribution (RFC 4684's effect): a client is only offered routes some
// local VRF could import, so update volume scales with VPN locality
// instead of total route count. A full mesh ignores the declarations
// (every speaker already filters on receive).
func (b *Backbone) declareRTInterest() {
	for _, peID := range b.peNodes {
		seen := make(map[addr.RouteTarget]bool)
		var rts []addr.RouteTarget
		for _, v := range b.routers[peID].VRFs {
			for _, rt := range v.Import {
				if !seen[rt] {
					seen[rt] = true
					rts = append(rts, rt)
				}
			}
		}
		b.BGP.SetRTInterest(peID, rts)
	}
}

// importVRFs refreshes every PE's VRFs from its current BGP best paths.
// PEs whose control-plane sessions are not Up are skipped: under graceful
// restart their VRF forwarding state must survive exactly as it was when
// the control plane died.
func (b *Backbone) importVRFs() {
	for _, peID := range b.peNodes {
		if b.surv.stateOf(peID) != sessUp {
			continue
		}
		sp, _ := b.BGP.Speaker(peID)
		routes := sp.BestRoutes()
		for _, v := range b.routers[peID].VRFs {
			// Withdrawn routes must disappear, not linger as stale label
			// state: purge the BGP-learned set and re-import the current
			// best paths.
			v.PurgeRemote()
			v.ImportRemote(routes)
		}
	}
}

// SetupTELSP signals an RSVP-TE tunnel between two PEs and steers the given
// class (or all classes with class = -1) of VPN traffic onto it at the
// ingress. Returns the LSP for inspection/teardown.
func (b *Backbone) SetupTELSP(name, ingressPE, egressPE string, bandwidth float64, class qos.Class, opt rsvp.SetupOptions) (*rsvp.LSP, error) {
	return b.SetupTELSPForVPN(name, ingressPE, egressPE, "", bandwidth, class, opt)
}

// SetupTELSPForVPN is SetupTELSP restricted to one VPN's traffic at the
// ingress — the per-customer "guaranteed QoS VPN" tunnel of the paper's
// abstract. An empty vpnName steers every VPN.
func (b *Backbone) SetupTELSPForVPN(name, ingressPE, egressPE, vpnName string, bandwidth float64, class qos.Class, opt rsvp.SetupOptions) (*rsvp.LSP, error) {
	if b.RSVP == nil {
		return nil, provErr(ProvTERequiresMPLS, "lsp:"+name, "TE requires MPLS mode")
	}
	if vpnName != "" {
		if _, ok := b.vpns[vpnName]; !ok {
			return nil, provErr(ProvUnknownVPN, "vpn:"+vpnName, "VPN %q not defined", vpnName)
		}
	}
	for _, req := range b.teRequests {
		if req.name == name {
			return nil, provErr(ProvDuplicateTE, "lsp:"+name, "TE intent %q already exists", name)
		}
	}
	in := b.mustNode(ingressPE)
	eg := b.mustNode(egressPE)
	if b.RSVP.DSTE != nil && opt.ClassType == rsvp.CT0 {
		opt.ClassType = classTypeFor(class)
	}
	l, err := b.RSVP.Setup(name, in, eg, bandwidth, opt)
	if err != nil {
		// Admission or path failure is the canonical retryable condition:
		// capacity may free up as other reservations drain.
		return nil, &ProvisionError{Code: ProvNoTEPath, Subject: "lsp:" + name, Detail: err.Error()}
	}
	b.teReqSeq++
	req := &teRequest{id: b.teReqSeq, name: name, ingress: in, egress: eg, vpn: vpnName,
		bandwidth: bandwidth, class: class, opt: opt, lsp: l,
		fullBandwidth: bandwidth, fullClassType: opt.ClassType}
	b.teRequests = append(b.teRequests, req)
	b.routers[in].SetTE(teKeyFor(req), l.Entry)
	return l, nil
}

// ReoptimizeTE re-signals the named TE intent make-before-break onto a
// path avoiding the given links (nil = any better path), repointing the
// ingress steering entry on success. The old path's interior labels drain
// for LSPDrainDelay so committed in-flight traffic is never dropped.
func (b *Backbone) ReoptimizeTE(name string, avoid map[topo.LinkID]bool) error {
	if b.RSVP == nil {
		return provErr(ProvTERequiresMPLS, "lsp:"+name, "TE requires MPLS mode")
	}
	for _, req := range b.teRequests {
		if req.name != name {
			continue
		}
		if req.lsp == nil || req.lsp.State != rsvp.Up {
			return provErr(ProvTENotUp, "lsp:"+name, "TE intent %q is not up", name)
		}
		nl, err := b.RSVP.ReoptimizeAvoiding(req.lsp.ID, avoid)
		if err != nil {
			return &ProvisionError{Code: ProvNoTEPath, Subject: "lsp:" + name, Detail: err.Error()}
		}
		req.lsp = nl
		b.routers[req.ingress].SetTE(teKeyFor(req), nl.Entry)
		return nil
	}
	return provErr(ProvUnknownTE, "lsp:"+name, "unknown TE intent %q", name)
}

// TeardownTE removes a TE intent: the LSP is torn down (reservations
// release immediately; interior labels drain), its ID reclaimed when it was
// the most recent assignment (LIFO — the transactional rollback order), the
// ingress steering entry deleted, and the intent dropped from the retry
// queue. Pending retry timers for the intent become no-ops.
func (b *Backbone) TeardownTE(name string) error {
	if b.RSVP == nil {
		return provErr(ProvTERequiresMPLS, "lsp:"+name, "TE requires MPLS mode")
	}
	for i, req := range b.teRequests {
		if req.name != name {
			continue
		}
		if req.lsp != nil && req.lsp.State == rsvp.Up {
			id := req.lsp.ID
			b.RSVP.Teardown(id)
			b.RSVP.ReclaimID(id)
		}
		b.routers[req.ingress].DeleteTE(teKeyFor(req))
		req.removed = true
		b.teRequests = append(b.teRequests[:i], b.teRequests[i+1:]...)
		return nil
	}
	return provErr(ProvUnknownTE, "lsp:"+name, "unknown TE intent %q", name)
}

// teKeyFor derives the ingress steering key from a teRequest.
func teKeyFor(req *teRequest) device.TEKey {
	return device.TEKey{EgressPE: req.egress, Class: req.class, VRF: req.vpn}
}

// classTypeFor maps a forwarding class to its DS-TE pool: voice and
// network control draw from the capped premium pool.
func classTypeFor(c qos.Class) rsvp.ClassType {
	if c == qos.ClassVoice || c == qos.ClassNetworkControl {
		return rsvp.CT1
	}
	return rsvp.CT0
}

// configureDSTE applies the premium-pool policy to the RSVP instance.
func (b *Backbone) configureDSTE() {
	if b.Cfg.DSTEPremiumFraction <= 0 || b.RSVP == nil {
		return
	}
	var bc [rsvp.NumClassTypes]float64
	bc[rsvp.CT0] = 1.0
	bc[rsvp.CT1] = b.Cfg.DSTEPremiumFraction
	b.RSVP.DSTE = rsvp.NewDSTE(bc)
}

// Site returns a provisioned site's CE node (injection point for traffic).
func (b *Backbone) Site(name string) (topo.NodeID, bool) {
	rec, ok := b.sites[name]
	if !ok {
		return -1, false
	}
	return rec.CE, true
}

// SiteNames lists provisioned sites (unsorted).
func (b *Backbone) SiteNames() []string {
	out := make([]string, 0, len(b.sites))
	for n := range b.sites {
		out = append(out, n)
	}
	return out
}

// ---------------------------------------------------------------------------
// Read-only accessors for the actual-state side of intent reconciliation.

// HasVPN reports whether a VPN is defined.
func (b *Backbone) HasVPN(name string) bool {
	_, ok := b.vpns[name]
	return ok
}

// VPNNames lists defined VPNs, sorted.
func (b *Backbone) VPNNames() []string {
	out := make([]string, 0, len(b.vpns))
	for n := range b.vpns {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// VPNSLA returns a VPN's SLA class (-1 = honour customer DSCP) and whether
// the VPN is defined.
func (b *Backbone) VPNSLA(name string) (qos.Class, bool) {
	cfg, ok := b.vpns[name]
	if !ok {
		return -1, false
	}
	return cfg.SLAClass, true
}

// VPNRTs returns a VPN's import/export route targets.
func (b *Backbone) VPNRTs(name string) (imports, exports []addr.RouteTarget, ok bool) {
	cfg, ok := b.vpns[name]
	if !ok {
		return nil, nil, false
	}
	return cfg.Imports, cfg.Exports, true
}

// SiteSpecOf returns the spec a provisioned site was created with.
func (b *Backbone) SiteSpecOf(name string) (SiteSpec, bool) {
	rec, ok := b.sites[name]
	if !ok {
		return SiteSpec{}, false
	}
	return rec.Spec, true
}

// IsPE reports whether a named node exists and is a provider edge.
func (b *Backbone) IsPE(name string) bool {
	id, ok := b.G.NodeByName(name)
	if !ok {
		return false
	}
	r := b.routers[id]
	return r != nil && r.Kind == device.PE
}

// SkeletonCompatibleSpec checks whether a spec would be refused because a
// retired site of the same name has an incompatible physical skeleton —
// the validation hook transactional layers call before committing an
// AddSite. Specs with no retired namesake always pass.
func (b *Backbone) SkeletonCompatibleSpec(spec SiteSpec) error {
	old, ok := b.retired[spec.Name]
	if !ok {
		return nil
	}
	if spec.AccessBw == 0 {
		spec.AccessBw = 100e6
	}
	if spec.AccessDelay == 0 {
		spec.AccessDelay = sim.Millisecond
	}
	return b.skeletonCompatible(old, spec)
}

// BuildIPSecMesh provisions pairwise ESP tunnels between every pair of
// sites in a VPN (the E3 baseline: a full mesh of encrypted tunnels over a
// PlainIP backbone). copyToS selects whether gateways copy the inner DSCP
// to the outer header. It returns the number of tunnels created
// (N(N-1)/2, feeding the E1 comparison too).
func (b *Backbone) BuildIPSecMesh(vpnName string, copyToS bool) int {
	return b.buildIPSecMesh(vpnName, copyToS, 1)
}

// BuildIPSecMeshPerClass is BuildIPSecMesh with one SA per forwarding
// class, giving each class its own anti-replay window (the fix for the
// reordering-vs-replay interaction E3 exposes).
func (b *Backbone) BuildIPSecMeshPerClass(vpnName string, copyToS bool) int {
	return b.buildIPSecMesh(vpnName, copyToS, int(qos.NumClasses))
}

func (b *Backbone) buildIPSecMesh(vpnName string, copyToS bool, sasPerTunnel int) int {
	var recs []*siteRecord
	for _, rec := range b.sites {
		if rec.Spec.VPN == vpnName {
			recs = append(recs, rec)
		}
	}
	// Deterministic ordering by site name.
	for i := 0; i < len(recs); i++ {
		for j := i + 1; j < len(recs); j++ {
			if recs[j].Spec.Name < recs[i].Spec.Name {
				recs[i], recs[j] = recs[j], recs[i]
			}
		}
	}
	spi := uint32(1000)
	tunnels := 0
	for i := 0; i < len(recs); i++ {
		for j := i + 1; j < len(recs); j++ {
			a, z := recs[i], recs[j]
			b.buildTunnel(spi, a, z, copyToS, sasPerTunnel)
			spi += uint32(sasPerTunnel)
			b.buildTunnel(spi, z, a, copyToS, sasPerTunnel)
			spi += uint32(sasPerTunnel)
			tunnels++
		}
	}
	return tunnels
}

// buildTunnel wires one direction of an ESP tunnel from site a to site z
// using n parallel SAs (class-indexed at the encapsulating gateway).
func (b *Backbone) buildTunnel(spi uint32, a, z *siteRecord, copyToS bool, n int) {
	ceA := b.routers[a.CE]
	ceZ := b.routers[z.CE]
	sas := make([]*ipsec.SA, n)
	for k := 0; k < n; k++ {
		sa := ipsec.NewSA(spi+uint32(k), ceA.Loopback, ceZ.Loopback)
		sa.CopyToS = copyToS
		sas[k] = sa
		ceZ.DecapSAs[sa.SPI] = ipsec.NewSA(sa.SPI, ceA.Loopback, ceZ.Loopback)
		ceZ.DecapSAs[sa.SPI].CopyToS = copyToS
	}
	if ceA.EncapTunnels == nil {
		ceA.EncapTunnels = addr.NewTable[[]*ipsec.SA]()
	}
	for _, p := range z.Spec.Prefixes {
		ceA.EncapTunnels.Insert(p, sas)
	}
}
