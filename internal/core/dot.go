package core

import (
	"fmt"
	"sort"
	"strings"

	"mplsvpn/internal/device"
	"mplsvpn/internal/topo"
)

// DOT renders the provisioned network as a Graphviz digraph: PEs as boxes,
// P routers as circles, CEs as small house-shaped nodes grouped by VPN,
// and one edge per duplex link annotated with bandwidth, reservation, and
// measured utilization. Feed it to `dot -Tsvg` for the deployment picture
// the paper draws by hand in Figs. 1-4.
func (b *Backbone) DOT() string {
	var out strings.Builder
	out.WriteString("digraph backbone {\n  rankdir=LR;\n  node [fontsize=10];\n")

	ids := make([]topo.NodeID, 0, len(b.routers))
	for id := range b.routers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := b.routers[id]
		switch r.Kind {
		case device.PE:
			fmt.Fprintf(&out, "  %q [shape=box, style=filled, fillcolor=lightblue];\n", r.Name)
		case device.P:
			fmt.Fprintf(&out, "  %q [shape=circle, style=filled, fillcolor=lightgray];\n", r.Name)
		default:
			vpnName := ""
			if rec := b.siteAt(id); rec != nil {
				vpnName = " (" + rec.Spec.VPN + ")"
			}
			fmt.Fprintf(&out, "  %q [shape=house, label=\"%s%s\"];\n", r.Name, r.Name, vpnName)
		}
	}

	seen := map[[2]topo.NodeID]bool{}
	for i := 0; i < b.G.NumLinks(); i++ {
		l := b.G.Link(topo.LinkID(i))
		key := [2]topo.NodeID{l.From, l.To}
		rev := [2]topo.NodeID{l.To, l.From}
		if seen[rev] || seen[key] {
			continue
		}
		seen[key] = true
		attrs := fmt.Sprintf("label=\"%.0fM", l.Bandwidth/1e6)
		if l.ReservedBw > 0 {
			attrs += fmt.Sprintf("\\nresv %.0fM", l.ReservedBw/1e6)
		}
		if u := b.Net.LinkUtilization(l.ID); u > 0.005 {
			attrs += fmt.Sprintf("\\nutil %.0f%%", u*100)
		}
		attrs += "\", dir=none"
		if l.Down {
			attrs += ", style=dashed, color=red"
		}
		fmt.Fprintf(&out, "  %q -> %q [%s];\n", b.G.Name(l.From), b.G.Name(l.To), attrs)
	}
	out.WriteString("}\n")
	return out.String()
}
