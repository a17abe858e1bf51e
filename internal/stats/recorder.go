package stats

import (
	"fmt"
	"slices"

	"ncap/internal/sim"
)

// Recorder is the latency-measurement surface the rest of the simulator
// programs against: record observations, query percentiles, summarize,
// and fold another recorder's observations in. LatencyRecorder is the
// exact reference implementation; alternative backends (sketches,
// fixed-bucket histograms) can satisfy it without touching call sites.
type Recorder interface {
	// Record adds one observation; negative latencies panic.
	Record(d sim.Duration)
	// Count returns the number of observations.
	Count() int
	// Percentile returns the p-th percentile (0 < p <= 100), 0 when empty.
	Percentile(p float64) sim.Duration
	// Summarize returns the standard distribution summary.
	Summarize() Summary
	// Merge folds another recorder's observations into this one.
	Merge(other Recorder)
}

// NewRecorder returns the default Recorder implementation (exact,
// every-sample recording).
func NewRecorder() Recorder { return NewLatencyRecorder() }

// Merge implements Recorder by replaying the other recorder's samples.
// Any implementation exposing raw samples merges exactly; anything else
// is a programming error — the exact reference recorder cannot be
// reconstructed from a lossy summary.
func (l *LatencyRecorder) Merge(other Recorder) {
	type sampler interface{ Samples() []sim.Duration }
	s, ok := other.(sampler)
	if !ok {
		panic(fmt.Sprintf("stats: cannot merge %T into LatencyRecorder", other))
	}
	samples := s.Samples()
	l.samples = slices.Grow(l.samples, len(samples)) // grow once, not per sample
	for _, d := range samples {
		l.Record(d)
	}
}
