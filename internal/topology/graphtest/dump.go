package graphtest

import (
	"fmt"
	"sort"
	"strings"

	"minsim/internal/topology"
)

// locString renders an endpoint compactly, e.g. "n05" or "G1.s03.R2".
func (n *Graph) locString(l topology.Loc) string {
	if l.IsNode() {
		return fmt.Sprintf("n%0*d", digitsFor(n.Nodes), l.Node)
	}
	sw := &n.Switches[l.Switch]
	return fmt.Sprintf("G%d.s%02d.%s%d", sw.Stage, sw.Index, l.Side, l.Port)
}

func digitsFor(n int) int {
	d := 1
	for n > 10 {
		n /= 10
		d++
	}
	return d
}

// Dump renders the struct form the way topology.Network.Dump renders
// the description, so an oracle graph built link by link can be
// compared with the accessors in the listing's own terms.
func (n *Graph) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d switches, %d links, %d channels\n", n.Name(), len(n.Switches), len(n.Links), len(n.Channels))
	type row struct {
		layer int
		dir   topology.Dir
		text  string
	}
	var rows []row
	for i := range n.Links {
		l := &n.Links[i]
		ch := &n.Channels[l.Channels[0]]
		extra := ""
		if len(l.Channels) > 1 {
			extra = fmt.Sprintf(" x%d", len(l.Channels))
		}
		rows = append(rows, row{ch.Layer, ch.Dir, fmt.Sprintf("  C%d %s: %s -> %s%s", ch.Layer, ch.Dir, n.locString(ch.From), n.locString(ch.To), extra)})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].layer != rows[j].layer {
			return rows[i].layer < rows[j].layer
		}
		if rows[i].dir != rows[j].dir {
			return rows[i].dir < rows[j].dir
		}
		return rows[i].text < rows[j].text
	})
	for _, r := range rows {
		sb.WriteString(r.text)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// DOT renders the struct form the way topology.Network.DOT renders
// the description.
func (n *Graph) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph min {\n  rankdir=LR;\n  node [shape=box];\n")
	for i := 0; i < n.Nodes; i++ {
		fmt.Fprintf(&sb, "  node%d [shape=circle,label=\"%s\"];\n", i, n.R.Format(i))
	}
	for i := range n.Switches {
		sw := &n.Switches[i]
		fmt.Fprintf(&sb, "  sw%d [label=\"G%d.%d\"];\n", i, sw.Stage, sw.Index)
	}
	seen := map[[2]string]int{}
	for i := range n.Links {
		ch := &n.Channels[n.Links[i].Channels[0]]
		from, to := n.dotName(ch.From), n.dotName(ch.To)
		seen[[2]string{from, to}]++
	}
	keys := make([][2]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		label := ""
		if c := seen[k]; c > 1 {
			label = fmt.Sprintf(" [label=\"x%d\"]", c)
		}
		fmt.Fprintf(&sb, "  %s -> %s%s;\n", k[0], k[1], label)
	}
	sb.WriteString("}\n")
	return sb.String()
}

func (n *Graph) dotName(l topology.Loc) string {
	if l.IsNode() {
		return fmt.Sprintf("node%d", l.Node)
	}
	return fmt.Sprintf("sw%d", l.Switch)
}
