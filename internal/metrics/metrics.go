// Package metrics is the simulator's live telemetry registry: counters,
// gauges, and fixed-bucket histograms exposed over HTTP in Prometheus
// text exposition and /debug/vars-style JSON (expose.go, http.go).
//
// The package is stdlib-only and built around the same cost contract as
// internal/trace:
//
//  1. Disabled must be near-free. Every registration method is safe on a
//     nil *Registry and returns a nil handle; call sites guard the
//     handle (`if c != nil { c.Inc() }`) so a run without -metrics-addr
//     pays exactly one predictable branch per site. Handle methods
//     dereference their receiver, so a missing guard is a nil panic in
//     every test that runs without a registry;
//     BenchmarkMetricsOverhead certifies the cost.
//  2. The hot path is atomic, not locked. Handle updates (Counter.Add,
//     Gauge.Set, Histogram.Observe) are single atomic operations safe
//     for concurrent sweep workers; the registry mutex is only taken at
//     registration and scrape time.
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
// handles obtained from a nil Registry are nil and must be guarded at
// the call site (the disabled fast path).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (callers keep counters monotone; deltas must be >= 0).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + d
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets
// (Prometheus `le` semantics: bucket i counts observations <= bound i,
// with an implicit +Inf bucket).
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value. NaN observations are dropped (they would
// poison the sum).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metricType discriminates family kinds in the registry and exposition.
type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (family, label set) time series.
type series struct {
	labels []Label // sorted by name
	key    string  // rendered `{a="x",...}` or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // gauge-func, evaluated at scrape time
}

// family is one metric name with its type, help, and series.
type family struct {
	name   string
	help   string
	typ    metricType
	bounds []float64 // histogram families only
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
	return r.lookup(name, help, typeCounter, nil, labels).c
}

// Gauge registers (or finds) a gauge series and returns its handle; nil
// when the registry is nil.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeGauge, nil, labels).g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time. Re-registering the same (name, labels) replaces fn — a retried
// sweep cell re-points its progress gauge at the fresh monitor. fn must
// be safe to call concurrently with the measured code.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	s := r.lookup(name, help, typeGauge, nil, labels)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// Histogram registers (or finds) a histogram series over the given
// cumulative upper bounds (sorted ascending; +Inf is implicit) and
// returns its handle; nil when the registry is nil.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s bounds not strictly ascending", name))
		}
	}
	return r.lookup(name, help, typeHistogram, bounds, labels).h
}

// lookup finds or creates the (family, series) pair. Type mismatches on
// an existing name are programmer errors and panic.
func (r *Registry) lookup(name, help string, typ metricType, bounds []float64, labels []Label) *series {
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
		f = &family{name: name, help: help, typ: typ, bounds: bounds, series: map[string]*series{}}
		r.fams[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	s := f.series[key]
	if s != nil {
		return s
	}
	s = &series{labels: sorted, key: key}
	switch typ {
	case typeCounter:
		s.c = &Counter{}
	case typeGauge:
		s.g = &Gauge{}
	case typeHistogram:
		h := &Histogram{bounds: f.bounds}
		h.buckets = make([]atomic.Int64, len(f.bounds)+1)
		s.h = h
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
