package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/mpls"
	"mplsvpn/internal/packet"
)

// digestDiff lists the sections whose lines differ between two StateDigests.
func digestDiff(t *testing.T, a, b string) []string {
	t.Helper()
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	if len(al) != len(bl) {
		t.Fatalf("digests list different sections:\n%s\n---\n%s", a, b)
	}
	var diff []string
	for i := range al {
		if al[i] != bl[i] {
			diff = append(diff, strings.Fields(al[i])[0])
		}
	}
	return diff
}

// TestStateDigestSeesContents: StateDigest hashes what the tables hold, not
// how big they are. Repointing one transit label of a P router at another
// link moves no table size, so ServiceDigest cannot see it; StateDigest must,
// and its first differing line must name the routers section.
func TestStateDigestSeesContents(t *testing.T) {
	b := buildSmall(Config{Seed: 1})
	twoSites(b)
	state, service := b.StateDigest(), b.ServiceDigest()

	p1 := b.Router("P1")
	in := packet.Label(packet.MinDynamicLabel)
	for ; ; in++ {
		if es, ok := p1.LFIB.LookupILMAll(in); ok && len(es) == 1 && es[0].OutLink >= 0 {
			break
		}
		if in > packet.MinDynamicLabel+1000 {
			t.Fatal("P1 has no transit label")
		}
	}
	es, _ := p1.LFIB.LookupILMAll(in)
	e := es[0]
	id, _ := b.G.NodeByName("P1")
	for _, l := range b.G.OutLinks(id) {
		if l != e.OutLink {
			e.OutLink = l
			break
		}
	}
	p1.LFIB.SetILM(in, []mpls.NHLFE{e})

	if got := b.ServiceDigest(); got != service {
		t.Fatalf("a repointed label moved a table size:\n%s\n---\n%s", service, got)
	}
	got := b.StateDigest()
	if got == state {
		t.Fatalf("StateDigest missed a repointed label:\n%s", got)
	}
	if diff := digestDiff(t, state, got); diff[0] != secRouters {
		t.Fatalf("first differing section %q, want %q", diff[0], secRouters)
	}
}

// TestDigestContracts pins why the comparisons between two different
// histories use ServiceDigest: removing a site and adding it again leaves
// the service as it was, but the label allocators have moved on, so the
// labels, the BGP routes that carry them and the routers' tables differ.
func TestDigestContracts(t *testing.T) {
	b := buildSmall(Config{Seed: 1})
	twoSites(b)
	state, service := b.StateDigest(), b.ServiceDigest()

	if err := b.RemoveSite("branch"); err != nil {
		t.Fatal(err)
	}
	b.ConvergeVPNs()
	b.AddSite(SiteSpec{VPN: "acme", Name: "branch", PE: "PE2",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16")}})
	b.ConvergeVPNs()

	if got := b.ServiceDigest(); got != service {
		t.Fatalf("remove and re-add changed the service:\n%s\n---\n%s", service, got)
	}
	want := []string{secLabels, secBGP, secRouters}
	if diff := digestDiff(t, state, b.StateDigest()); !slices.Equal(diff, want) {
		t.Fatalf("StateDigest differs in %v, want %v", diff, want)
	}
}

// TestDigestLeavesCheckpointBytes: a digest runs the save walks, the bgp
// walk's route-numbering scratch included, so one taken between two
// checkpoints must not move the second one's bytes.
func TestDigestLeavesCheckpointBytes(t *testing.T) {
	b := buildSmall(Config{Seed: 1})
	twoSites(b)
	before, err := b.Snapshot("digest")
	if err != nil {
		t.Fatal(err)
	}
	b.StateDigest()
	after, err := b.Snapshot("digest")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("a digest moved the checkpoint: %d bytes, then %d", len(before), len(after))
	}
}
