package core

import (
	"fmt"
	"sort"
	"strings"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/device"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
)

// StateDigest describes the run's state as one line per checkpoint section:
// its name and the CRC-32C of the bytes the section's state walk writes.
// The checkpoint walks are the one description of run state, so two runs
// with the same history — serial or sharded, uninterrupted or resumed from
// a checkpoint — digest alike, and a change to any table's contents shows.
// The first line that differs names the section that did. Sections whose
// bytes depend on how the run was executed rather than on what it simulated
// (manifest, engine, pending, net) are left out.
func (b *Backbone) StateDigest() string { return digestSections(b.sections("", nil), b.checkpointLen) }

// StateDigest is the multi-provider StateDigest: the shared topology,
// every member AS's sections under its "<as>/" prefix, and the inter-AS
// peering plane.
func (x *InterAS) StateDigest() string { return digestSections(x.sections("", nil), x.checkpointLen) }

// digestSections walks every section that describes simulated state through
// one Writer, emptied between sections. sizeHint is the length of the
// owner's previous checkpoint, 0 for none: it bounds every section, so the
// Writer is sized once instead of regrowing through the largest. No pending
// walk runs, which is what lets a run with closures pending be digested.
func digestSections(secs []section, sizeHint int) string {
	var sb strings.Builder
	var w snapshot.Writer
	w.Grow(sizeHint)
	c := snapshot.Saver(&w)
	for _, s := range secs {
		switch s.name {
		case secManifest, secEngine, secPending, secNet:
			continue
		}
		w.Reset()
		s.walk(c)
		fmt.Fprintf(&sb, "%s %08x\n", s.name, snapshot.Checksum(w.Data()))
	}
	return sb.String()
}

// ServiceDigest renders the provisioned service — per-router table sizes
// and TE steering, every RSVP LSP with its path, and per-link down and
// reservation state — as deterministic text. It is the digest for two runs
// with different histories that must end up providing the same service: a
// transaction rolled back against one never attempted, a site removed and
// re-added, a link flap reconverged by delta against the full rebuild.
// StateDigest cannot serve that contract, because the walked state records
// history: undone or redone provisioning advances the label allocators and
// a full reconvergence relabels every router, the IGP keeps message counts
// and LSA sequence numbers, the VPN registry keeps its history, and a
// rolled-back AddSite keeps its CE skeleton.
func (b *Backbone) ServiceDigest() string {
	var sb strings.Builder
	for _, n := range b.providerNodes {
		r := b.routers[n]
		fmt.Fprintf(&sb, "router %s ilm=%d ftn=%d", r.Name, r.LFIB.ILMSize(), r.FTN.Size())
		keys := make([]device.TEKey, 0, len(r.TE))
		for k := range r.TE {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].EgressPE != keys[j].EgressPE {
				return keys[i].EgressPE < keys[j].EgressPE
			}
			if keys[i].Class != keys[j].Class {
				return keys[i].Class < keys[j].Class
			}
			return keys[i].VRF < keys[j].VRF
		})
		for _, k := range keys {
			fmt.Fprintf(&sb, " te[%s/%v/%s]->link%d", b.G.Name(k.EgressPE), k.Class, k.VRF, r.TE[k].OutLink)
		}
		sb.WriteByte('\n')
	}
	// Not the LSP's ID: a re-signalled LSP carries a new one.
	if b.RSVP != nil {
		for _, l := range b.RSVP.LSPs() {
			fmt.Fprintf(&sb, "lsp %s %s %.0f %s\n", l.Name, l.State, l.Bandwidth, b.pathName(l.Path))
		}
	}
	// Links touching a retired site's skeleton are not service state: a
	// deprovisioned-then-reprovisioned site must digest identically to one
	// that was never touched, or transactional rollback would be visible.
	retired := make(map[topo.NodeID]bool)
	for _, rec := range b.retired {
		retired[rec.CE] = true
		for _, hid := range rec.hosts {
			retired[hid] = true
		}
	}
	for i := 0; i < b.G.NumLinks(); i++ {
		l := b.G.Link(topo.LinkID(i))
		if retired[l.From] || retired[l.To] {
			continue
		}
		fmt.Fprintf(&sb, "link %s->%s down=%t resv=%.0f\n", b.G.Name(l.From), b.G.Name(l.To), l.Down, l.ReservedBw)
	}
	return sb.String()
}

// SiteAddr returns the first customer address of a provisioned site — a
// convenient probe destination for traces and pings.
func (b *Backbone) SiteAddr(name string) (addr.IPv4, bool) {
	rec, ok := b.sites[name]
	if !ok {
		return 0, false
	}
	return firstHost(rec.Spec.Prefixes[0]), true
}
