package topology

import (
	"fmt"
	"sort"
	"strings"
)

// locString renders an endpoint compactly, e.g. "n05" or "G1.s03.R2".
func (n *Network) locString(l Loc) string {
	if l.IsNode() {
		return fmt.Sprintf("n%0*d", digitsFor(n.Nodes), l.Node)
	}
	stage, index := n.StageOf(l.Switch)
	return fmt.Sprintf("G%d.s%02d.%s%d", stage, index, l.Side, l.Port)
}

func digitsFor(n int) int {
	d := 1
	for n > 10 {
		n /= 10
		d++
	}
	return d
}

// Dump writes a human-readable wiring listing, one line per physical
// link, grouped by layer. It is used by minsim topo to reproduce the
// paper's wiring diagrams (Figs. 4-6) in textual form.
func (n *Network) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d switches, %d links, %d channels\n", n.Name(), n.SwitchCount(), n.LinkCount(), n.ChannelCount())
	type row struct {
		layer int
		dir   Dir
		text  string
	}
	rows := make([]row, 0, n.LinkCount())
	for l := range n.LinkCount() {
		base, count := n.LinkChannels(l)
		ch := n.ChannelAt(base)
		extra := ""
		if count > 1 {
			extra = fmt.Sprintf(" x%d", count)
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

// DOT renders the network in Graphviz dot format.
func (n *Network) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph min {\n  rankdir=LR;\n  node [shape=box];\n")
	for i := 0; i < n.Nodes; i++ {
		fmt.Fprintf(&sb, "  node%d [shape=circle,label=\"%s\"];\n", i, n.R.Format(i))
	}
	for sw := range n.SwitchCount() {
		stage, index := n.StageOf(sw)
		fmt.Fprintf(&sb, "  sw%d [label=\"G%d.%d\"];\n", sw, stage, index)
	}
	seen := map[[2]string]int{}
	for l := range n.LinkCount() {
		base, _ := n.LinkChannels(l)
		ch := n.ChannelAt(base)
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

func (n *Network) dotName(l Loc) string {
	if l.IsNode() {
		return fmt.Sprintf("node%d", l.Node)
	}
	return fmt.Sprintf("sw%d", l.Switch)
}
