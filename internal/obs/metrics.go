package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is idempotent: asking for an existing
// name returns the existing instrument, so package-level vars across the
// codebase can all register against Default. Re-registering a name with a
// different type or label schema panics (a programming error).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// Default is the process-wide registry every instrumented package records
// into; cmd/cornetd serves it at GET /metrics.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

type family struct {
	name    string
	help    string
	kind    string // "counter" | "gauge" | "histogram"
	labels  []string
	buckets []float64 // histograms only

	mu     sync.Mutex
	series map[string]any // label-values key -> *Counter | *Gauge | *Histogram
	fn     func() float64 // gauge callback (GaugeFunc)
}

// seriesSep joins label values into map keys; label values containing the
// separator byte would collide, but 0xff is not valid UTF-8 so no sane
// label value carries it.
const seriesSep = "\xff"

func (r *Registry) family(name, help, kind string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s%v, was %s%v",
				name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels,
		buckets: buckets, series: map[string]any{}}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing value.
type Counter struct{ bits atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (must be non-negative to keep the counter monotonic).
func (c *Counter) Add(v float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (negative to subtract).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into cumulative buckets plus a sum
// and count, the Prometheus histogram representation.
type Histogram struct {
	upper   []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts  []atomic.Int64
	sumBits atomic.Uint64
	count   atomic.Int64
}

func newHistogram(buckets []float64) *Histogram {
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	return &Histogram{upper: upper, counts: make([]atomic.Int64, len(upper)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DefBuckets returns the default latency buckets in seconds (1ms–10s),
// sized for this system's request spectrum: sub-millisecond catalog reads
// through multi-second planning runs.
func DefBuckets() []float64 {
	return []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ f *family }

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct{ f *family }

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct{ f *family }

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, "counter", labels, nil)}
}

// With returns the counter for the given label values (created on first
// use), in the order the labels were declared.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.series1(values, func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, "gauge", labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.series1(values, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed at scrape time (for
// uptime-style readings no code path updates).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, "gauge", nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// Histogram registers (or returns) an unlabeled histogram with the given
// bucket upper bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets()
	}
	return &HistogramVec{r.family(name, help, "histogram", labels, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	f := v.f
	return f.series1(values, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

func (f *family) series1(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, seriesSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	m := mk()
	f.series[key] = m
	return m
}

// WritePrometheus renders every family in Prometheus text exposition
// format (families and series in sorted order, so output is stable).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make([]*family, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()
	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	series := make([]any, len(keys))
	for i, k := range keys {
		series[i] = f.series[k]
	}
	fn := f.fn
	f.mu.Unlock()

	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
		return err
	}
	if fn != nil {
		_, err := fmt.Fprintf(w, "%s %s\n", f.name, fmtFloat(fn()))
		return err
	}
	for i, k := range keys {
		labels := f.labelString(k, "")
		switch m := series[i].(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labels, fmtFloat(m.Value())); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labels, fmtFloat(m.Value())); err != nil {
				return err
			}
		case *Histogram:
			cum := int64(0)
			for bi, ub := range m.upper {
				cum += m.counts[bi].Load()
				le := f.labelString(k, fmtFloat(ub))
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, le, cum); err != nil {
					return err
				}
			}
			cum += m.counts[len(m.upper)].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, f.labelString(k, "+Inf"), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labels, fmtFloat(m.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labels, m.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

// labelString renders {a="x",b="y"} for a series key, appending le when
// non-empty (histogram buckets). Returns "" for unlabeled series.
func (f *family) labelString(key, le string) string {
	var parts []string
	if len(f.labels) > 0 {
		values := strings.Split(key, seriesSep)
		for i, name := range f.labels {
			// %q covers the exposition-format escapes (\\, \", \n).
			parts = append(parts, fmt.Sprintf("%s=%q", name, values[i]))
		}
	}
	if le != "" {
		parts = append(parts, fmt.Sprintf("le=%q", le))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
