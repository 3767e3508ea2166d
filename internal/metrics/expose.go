package metrics

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
)

// famSnap/serSnap are point-in-time copies of the registry structure.
// The snapshot is taken under the registry mutex; values and gauge
// functions are read afterwards so a slow GaugeFunc never holds the
// registration lock.
type serSnap struct {
	key string
	c   *Counter
	g   *Gauge
	fn  func() float64
}

type famSnap struct {
	name   string
	help   string
	typ    metricType
	series []serSnap
}

// snapshot copies the registry skeleton in deterministic (sorted) order.
func (r *Registry) snapshot() []famSnap {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]famSnap, 0, len(r.fams))
	for _, f := range r.fams {
		fs := famSnap{name: f.name, help: f.help, typ: f.typ}
		for _, s := range f.series {
			fs.series = append(fs.series, serSnap{key: s.key, c: s.c, g: s.g, fn: s.fn})
		}
		sort.Slice(fs.series, func(i, j int) bool { return fs.series[i].key < fs.series[j].key })
		out = append(out, fs)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), families and series in sorted order so
// identical runs scrape byte-identically. Safe on a nil registry.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshot() {
		bw.WriteString("# HELP ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(f.help))
		bw.WriteString("\n# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.typ.String())
		bw.WriteByte('\n')
		for i := range f.series {
			s := &f.series[i]
			bw.WriteString(f.name)
			bw.WriteString(s.key)
			bw.WriteByte(' ')
			switch {
			case s.fn != nil:
				bw.WriteString(formatFloat(s.fn()))
			case s.c != nil:
				bw.WriteString(strconv.FormatInt(s.c.Value(), 10))
			default:
				bw.WriteString(formatFloat(s.g.Value()))
			}
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trip representation, with infinities spelled +Inf/-Inf.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a help string per the text exposition format.
func escapeHelp(h string) string {
	out := make([]byte, 0, len(h))
	for i := 0; i < len(h); i++ {
		switch h[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, h[i])
		}
	}
	return string(out)
}
