package telemetry

import (
	"fmt"
	"path"
	"sort"
	"strings"

	"ncap/internal/sim"
)

// Kind classifies a metric.
type Kind string

// The metric kinds.
const (
	KindCounter   Kind = "counter"   // monotonic event count
	KindGauge     Kind = "gauge"     // instantaneous value
	KindMeter     Kind = "meter"     // time-weighted state residency (ns)
	KindHistogram Kind = "histogram" // latency distribution
)

// Registry is a flat namespace of metrics under stable dotted names
// ("server.cpu.core2.cstate.c6.residency_ns", "server.nic.itr.fires").
// Counters, gauges and meters are observable: registration stores a
// closure and Export reads the live component state, so instrumentation
// costs nothing on the simulation hot path. Histograms are fed live.
//
// A Registry belongs to one simulation run and, like the run itself, is
// single-goroutine; the runner gives each concurrent job its own.
type Registry struct {
	metrics map[string]*metric
}

type metric struct {
	kind    Kind
	observe func() float64
	hist    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

func (r *Registry) add(name string, m *metric) {
	if name == "" || strings.ContainsAny(name, " \t\n,") {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.metrics[name] = m
}

// Counter registers an observable monotonic counter. Nil-safe.
func (r *Registry) Counter(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.add(name, &metric{kind: KindCounter, observe: func() float64 { return float64(fn()) }})
}

// Gauge registers an observable instantaneous value. Nil-safe.
func (r *Registry) Gauge(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.add(name, &metric{kind: KindGauge, observe: fn})
}

// Meter registers a time-weighted state residency, exported in
// nanoseconds of accrued time. Nil-safe.
func (r *Registry) Meter(name string, fn func() sim.Duration) {
	if r == nil {
		return
	}
	r.add(name, &metric{kind: KindMeter, observe: func() float64 { return float64(fn()) }})
}

// Histogram registers and returns a live latency histogram. Nil-safe:
// a nil registry returns a nil histogram whose Record no-ops.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{}
	r.add(name, &metric{kind: KindHistogram, hist: h})
	return h
}

// Len returns the number of registered metrics. Nil-safe.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.metrics)
}

// Selection is a set of observable metrics resolved once by Resolve, so
// a periodic reader pays no name lookup per read.
type Selection []func() float64

// Sum returns the matched metrics' current values added in name order.
func (s Selection) Sum() float64 {
	var sum float64
	for _, observe := range s {
		sum += observe()
	}
	return sum
}

// Resolve returns the counters, gauges and meters whose names match
// pattern — a plain name or a path.Match glob such as
// "server.cpu.core*.busy_ns" — in name order; len of the result is the
// match count. Histograms are not observable and never match. A pattern
// that matches nothing, or a nil registry, yields an empty Selection
// whose Sum is 0. It panics on a malformed pattern (a caller bug).
func (r *Registry) Resolve(pattern string) Selection {
	if r == nil {
		return nil
	}
	if _, err := path.Match(pattern, ""); err != nil {
		panic(fmt.Sprintf("telemetry: bad pattern %q: %v", pattern, err))
	}
	var names []string
	for name, m := range r.metrics {
		if ok, _ := path.Match(pattern, name); ok && m.observe != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	sel := make(Selection, len(names))
	for i, name := range names {
		sel[i] = r.metrics[name].observe
	}
	return sel
}

// Sample is one exported metric value. Exactly one of Value (counter,
// gauge, meter) or Histogram is meaningful, selected by Kind.
type Sample struct {
	Name      string             `json:"name"`
	Kind      Kind               `json:"kind"`
	Value     float64            `json:"value"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// Export snapshots every metric, sorted by name — the deterministic dump
// order the report writer relies on. Nil-safe: a nil registry exports
// nothing.
func (r *Registry) Export() []Sample {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Sample, 0, len(names))
	for _, name := range names {
		m := r.metrics[name]
		s := Sample{Name: name, Kind: m.kind}
		if m.hist != nil {
			s.Histogram = m.hist.Snapshot()
			s.Value = float64(s.Histogram.Count)
		} else {
			s.Value = m.observe()
		}
		out = append(out, s)
	}
	return out
}
