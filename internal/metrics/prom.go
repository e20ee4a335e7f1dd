package metrics

import (
	"fmt"
	"io"
)

// Prom writes service counters in the Prometheus text exposition format
// (text/plain; version=0.0.4), the format of simd's and simfleet's
// /metrics. Each family is its HELP and TYPE lines and then its samples.
type Prom struct{ W io.Writer }

// Family writes the HELP and TYPE lines that open a family; its samples
// follow (Sample, or lines of the caller's own for a summary).
func (p Prom) Family(name, typ, help string) {
	fmt.Fprintf(p.W, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Gauge writes a gauge family of one unlabelled sample.
func (p Prom) Gauge(name, help string, v int64) {
	p.Family(name, "gauge", help)
	fmt.Fprintf(p.W, "%s %d\n", name, v)
}

// Counter writes a counter family of one unlabelled sample.
func (p Prom) Counter(name, help string, v int64) {
	p.Family(name, "counter", help)
	fmt.Fprintf(p.W, "%s %d\n", name, v)
}

// Sample writes one sample of a family with one label, its value quoted.
func (p Prom) Sample(name, label, value string, v int64) {
	fmt.Fprintf(p.W, "%s{%s=%q} %d\n", name, label, value, v)
}
