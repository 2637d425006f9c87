package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// promEscaper escapes a label value per the Prometheus text exposition
// format: backslash, double quote and newline.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// PromLabel renders one label pair, name="value", with the value
// escaped per the exposition format.
func PromLabel(name, value string) string {
	return name + `="` + promEscaper.Replace(value) + `"`
}

// promValue formats a sample value. Prometheus accepts Go's shortest
// float form plus +Inf/-Inf/NaN.
func promValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}

// PromWriter renders one Prometheus text exposition document. Each
// metric family is announced once (# HELP / # TYPE) before its
// samples. The first write error stops all further output. The repo
// deliberately has no client-library dependency.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter returns a writer rendering to w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Family emits the HELP/TYPE header for a metric family.
func (p *PromWriter) Family(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample emits one sample line; labels are pre-rendered with their
// braces ("" for none).
func (p *PromWriter) Sample(name, labels string, v float64) {
	p.printf("%s%s %s\n", name, labels, promValue(v))
}

// Counter and Gauge emit single-sample families.
func (p *PromWriter) Counter(name, help string, v float64) {
	p.Family(name, help, "counter")
	p.Sample(name, "", v)
}

func (p *PromWriter) Gauge(name, help string, v float64) {
	p.Family(name, help, "gauge")
	p.Sample(name, "", v)
}

// Histogram emits one labeled histogram series from an Export:
// cumulative le buckets, _sum and _count. labels are pre-rendered
// without braces ("" for none). The family header must have been
// emitted by the caller (several label sets share one family).
func (p *PromWriter) Histogram(name, labels string, e HistogramExport) {
	for _, b := range e.Buckets {
		le := promValue(b.LE)
		lbl := fmt.Sprintf("{%s,le=%q}", labels, le)
		if labels == "" {
			lbl = fmt.Sprintf("{le=%q}", le)
		}
		p.Sample(name+"_bucket", lbl, float64(b.Count))
	}
	wrap := ""
	if labels != "" {
		wrap = "{" + labels + "}"
	}
	p.Sample(name+"_sum", wrap, e.SumSeconds)
	p.Sample(name+"_count", wrap, float64(e.Count))
}

// CounterSeries is one labeled copy of a counter set: Values is
// indexed like the set's table, Labels pre-rendered as for Sample.
type CounterSeries struct {
	Labels string
	Values []int64
}

// Counters renders a counter set: one counter family per table row,
// named prefix+Key+"_total", with one sample per series.
func (p *PromWriter) Counters(prefix string, table []CounterDesc, series ...CounterSeries) {
	for i, d := range table {
		name := prefix + d.Key + "_total"
		p.Family(name, d.Help, "counter")
		for _, s := range series {
			p.Sample(name, s.Labels, float64(s.Values[i]))
		}
	}
}
