package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is where a program declares its metric families, each once:
// name, type and help text next to the value's source. Two walks render
// it — Prometheus text (WriteProm) and one JSON document (WriteJSON) —
// so a family added here shows up in both with nothing else to edit.
//
//	reg := obs.NewRegistry("app_")
//	reg.GaugeFunc("app_queue_depth", "Jobs waiting.", func() float64 { return float64(q.Len()) })
//	hits := reg.CounterVec("app_hits_total", "Pages served, by route.", "route")
//	lat := reg.HistogramVec("app_latency_seconds", "Latency, by route.", "route", obs.DefDurationBuckets)
//	home := lat.With("/") // once, at route set-up; Observe on the hot path
//
// Declaring families is start-up work; the values they hand back
// (*atomic.Uint64, *Histogram) are updated lock-free. Registering a name
// twice panics — a programmer error, like NewHistogram's unordered
// bounds.
type Registry struct {
	namespace string

	mu       sync.Mutex
	families []family
}

// Family is one gathered metric family: its declaration plus the samples
// read from the live sources at gather time.
type Family struct {
	Name, Type, Help string
	// Labelled families render every sample with its label set in JSON,
	// however many samples there are; the others are a bare value.
	Labelled bool
	Samples  []Sample
}

// Sample is one series of a family: Hist for histogram families, Value
// otherwise.
type Sample struct {
	Labels Labels
	Value  float64
	Hist   *HistogramSnapshot
}

type family struct {
	Family
	collect func() []Sample
}

// NewRegistry returns an empty registry. namespace is the prefix the
// family names share ("treesim_"); JSON keys drop it.
func NewRegistry(namespace string) *Registry { return &Registry{namespace: namespace} }

func (r *Registry) register(name, typ, help string, labelled bool, collect func() []Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		if f.Name == name {
			panic(fmt.Sprintf("obs: metric family %q registered twice", name))
		}
	}
	r.families = append(r.families, family{Family{Name: name, Type: typ, Help: help, Labelled: labelled}, collect})
}

func scalar(fn func() float64) func() []Sample {
	return func() []Sample { return []Sample{{Value: fn()}} }
}

// CounterFunc declares a counter whose value lives elsewhere; fn is
// called at every gather.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, "counter", help, false, scalar(fn))
}

// GaugeFunc declares a gauge read from its live source at every gather.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, "gauge", help, false, scalar(fn))
}

// HistogramFunc declares a histogram whose snapshot comes from fn (the
// runtime's own distributions).
func (r *Registry) HistogramFunc(name, help string, fn func() HistogramSnapshot) {
	r.register(name, "histogram", help, false, func() []Sample {
		s := fn()
		return []Sample{{Hist: &s}}
	})
}

// Histogram declares a histogram over bounds and returns it.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.HistogramFunc(name, help, h.Snapshot)
	return h
}

// LabelledFunc declares a counter or gauge family whose labelled samples
// fn computes at every gather (an info gauge, a per-class census).
func (r *Registry) LabelledFunc(name, typ, help string, fn func() []Sample) {
	r.register(name, typ, help, true, fn)
}

// vec is the children of a one-label family, in creation order.
type vec[T any] struct {
	label  string
	newKid func() *T

	mu     sync.Mutex
	values []string
	kids   []*T
}

// With returns the child for one label value, creating it on first use.
// Call it when the value becomes known (a route is registered), not per
// observation.
func (v *vec[T]) With(value string) *T {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, have := range v.values {
		if have == value {
			return v.kids[i]
		}
	}
	kid := v.newKid()
	v.values = append(v.values, value)
	v.kids = append(v.kids, kid)
	return kid
}

func (v *vec[T]) collect(sample func(*T) Sample) func() []Sample {
	return func() []Sample {
		v.mu.Lock()
		defer v.mu.Unlock()
		out := make([]Sample, len(v.kids))
		for i, kid := range v.kids {
			out[i] = sample(kid)
			out[i].Labels = Labels{v.label: v.values[i]}
		}
		return out
	}
}

// CounterVec is a counter family with one label.
type CounterVec = vec[atomic.Uint64]

// CounterVec declares a counter family keyed by one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{label: label, newKid: func() *atomic.Uint64 { return new(atomic.Uint64) }}
	r.register(name, "counter", help, true, v.collect(func(c *atomic.Uint64) Sample {
		return Sample{Value: float64(c.Load())}
	}))
	return v
}

// HistogramVec is a histogram family with one label.
type HistogramVec = vec[Histogram]

// HistogramVec declares a histogram family keyed by one label, every
// child over the same bounds.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	v := &HistogramVec{label: label, newKid: func() *Histogram { return NewHistogram(bounds) }}
	r.register(name, "histogram", help, true, v.collect(func(h *Histogram) Sample {
		s := h.Snapshot()
		return Sample{Hist: &s}
	}))
	return v
}

// Gather reads every family's current samples, in declaration order. The
// registry lock covers only the copy of the declaration list: sources are
// read, and the result rendered, with no registry lock held, so a slow
// reader of the rendering never blocks a writer of the metrics.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	fams := r.families
	r.mu.Unlock()
	out := make([]Family, len(fams))
	for i, f := range fams {
		out[i] = f.Family
		out[i].Samples = f.collect()
	}
	return out
}

// WriteProm renders the registry as Prometheus text exposition (0.0.4).
func (r *Registry) WriteProm(w io.Writer) error {
	pw := NewPromWriter(w)
	for _, f := range r.Gather() {
		pf := pw.Family(f.Name, f.Type, f.Help)
		for _, s := range f.Samples {
			if s.Hist != nil {
				pf.Histogram(s.Labels, *s.Hist)
			} else {
				pf.Sample(s.Labels, s.Value)
			}
		}
	}
	return pw.Err()
}

// WriteJSON renders the registry as one JSON object keyed by family name
// minus the namespace. A plain family is its value: a number, or for a
// histogram {"count", "sum", "buckets": {"le_<bound>": cumulative count,
// …, "le_inf"}} — the numbers of the Prometheus _count, _sum and _bucket
// series. A labelled family is an array with one such value per series,
// numbers wrapped as {"value": n}, each carrying its "labels".
func (r *Registry) WriteJSON(w io.Writer) error {
	doc := make(map[string]any)
	for _, f := range r.Gather() {
		key := strings.TrimPrefix(f.Name, r.namespace)
		if !f.Labelled { // exactly one sample, by construction
			if s := f.Samples[0]; s.Hist != nil {
				doc[key] = histogramJSON(*s.Hist)
			} else {
				doc[key] = s.Value
			}
			continue
		}
		series := make([]map[string]any, len(f.Samples))
		for i, s := range f.Samples {
			series[i] = map[string]any{"value": s.Value}
			if s.Hist != nil {
				series[i] = histogramJSON(*s.Hist)
			}
			series[i]["labels"] = s.Labels
		}
		doc[key] = series
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(doc)
}

// histogramJSON is cumulative like PromFamily.Histogram, +Inf present even
// on an empty snapshot; the bucket labels are the Prometheus le values
// behind "le_": numeric, base units, parsing back with strconv.ParseFloat.
func histogramJSON(h HistogramSnapshot) map[string]any {
	buckets := make(map[string]uint64, len(h.Counts))
	var cum uint64
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		buckets["le_"+formatFloat(b)] = cum
	}
	if n := len(h.Counts); n > 0 {
		cum += h.Counts[n-1]
	}
	buckets["le_inf"] = cum
	return map[string]any{"count": cum, "sum": h.Sum, "buckets": buckets}
}
