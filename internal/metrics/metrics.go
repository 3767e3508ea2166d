// Package metrics is the simulator's live telemetry registry: counters
// and gauges exposed over HTTP in the Prometheus text exposition format
// (expose.go, http.go).
//
// The package is stdlib-only and built around the same cost contract as
// internal/trace:
//
//  1. Disabled must be near-free, and needs no guard. Every registration
//     method is safe on a nil *Registry and returns a nil handle, and the
//     update methods (Counter.Inc, Counter.Add, Gauge.Set) are no-ops on
//     one: a run without -metrics-addr pays one predictable branch per
//     site, inside the method, and a call site cannot forget it.
//     `go run ./benchmark` reports the enabled cost
//     (metrics.enabled_overhead_pct).
//  2. The hot path is atomic, not locked. Handle updates (Counter.Add,
//     Gauge.Set) are single atomic operations safe for concurrent sweep
//     workers; the registry mutex is only taken at registration and
//     scrape time.
//  3. Scrapes are deterministic. Families and series render in sorted
//     order, so two identical runs produce byte-identical scrapes — the
//     property that lets CI diff telemetry like any other output.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value dimension of a series.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing value. The zero value is ready;
// a handle obtained from a nil Registry is nil, and updating it does
// nothing (the disabled fast path).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (callers keep counters monotone; deltas must be >= 0).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down; a nil handle ignores Set.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricType discriminates family kinds in the registry and exposition.
type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
)

func (t metricType) String() string {
	if t == typeCounter {
		return "counter"
	}
	return "gauge"
}

// series is one (family, label set) time series.
type series struct {
	key string // rendered `{a="x",...}`, labels sorted by name, or ""
	c   *Counter
	g   *Gauge
	fn  func() float64 // gauge-func, evaluated at scrape time
}

// family is one metric name with its type, help, and series.
type family struct {
	name   string
	help   string
	typ    metricType
	series map[string]*series
}

// Registry holds metric families. The zero value via New is ready; a
// nil Registry is the disabled state — every registration method
// no-ops and returns a nil handle.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// Counter registers (or finds) a counter series and returns its handle;
// nil when the registry is nil.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeCounter, labels).c
}

// Gauge registers (or finds) a gauge series and returns its handle; nil
// when the registry is nil.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeGauge, labels).g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time and returns the function that drops the series again (nil when
// the registry is nil) — a series that reads a live object must not
// outlive it. Re-registering the same (name, labels) replaces fn. fn
// must be safe to call concurrently with the measured code.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) (drop func()) {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, typeGauge, labels)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		delete(r.fams[name].series, s.key)
		r.mu.Unlock()
	}
}

// lookup finds or creates the (family, series) pair. Type mismatches on
// an existing name are programmer errors and panic.
func (r *Registry) lookup(name, help string, typ metricType, labels []Label) *series {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, l := range sorted {
		if !validName(l.Name) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l.Name, name))
		}
	}
	key := labelKey(sorted)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: map[string]*series{}}
		r.fams[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	s := f.series[key]
	if s != nil {
		return s
	}
	s = &series{key: key}
	if typ == typeCounter {
		s.c = &Counter{}
	} else {
		s.g = &Gauge{}
	}
	f.series[key] = s
	return s
}

// labelKey renders sorted labels as the Prometheus series suffix.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the text exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// validName checks a metric or label name against the Prometheus
// identifier grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}
