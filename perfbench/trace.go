package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ncap/internal/cluster"
	"ncap/internal/runner"
	"ncap/internal/telemetry"
)

// spanID names a recorded span; 0 is "no span" (a root's parent, or any
// span of an untraced pass).
type spanID int64

// span is one call into a layer, recorded from the benchmark's side.
// Spans of one operation (a job, a sweep) share Op. The runtime deltas
// are process-wide: with parallel workers they include their siblings.
type span struct {
	ID     spanID             `json:"id"`
	Parent spanID             `json:"parent,omitempty"`
	Op     int64              `json:"op"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Allocs uint64             `json:"allocs"`
	Bytes  uint64             `json:"alloc_bytes"`
	GCCPU  float64            `json:"gc_cpu_s"`
	CPU    float64            `json:"cpu_s"`
	Counts map[string]float64 `json:"counts,omitempty"`
	rt0    rtSnap
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes call it freely.
type tracer struct {
	epoch      time.Time
	mu         sync.Mutex
	spans      []span
	violations int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent spanID, op int64) spanID {
	if t == nil {
		return 0
	}
	rt := readRuntime()
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := spanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, rt0: rt})
	return id
}

// end closes a span, snapshotting runtime/metrics and the given counts
// at the same boundary.
func (t *tracer) end(id spanID, counts map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	rt := readRuntime()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = end
	s.Allocs = rt.allocs - s.rt0.allocs
	s.Bytes = rt.bytes - s.rt0.bytes
	s.GCCPU = rt.gcCPU - s.rt0.gcCPU
	s.CPU = rt.cpu - s.rt0.cpu
	s.Counts = counts
}

func (t *tracer) addViolations(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.violations += n
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover; children of one span may overlap when workers run
// in parallel, so their intervals are merged first.
func selfTimes(spans []span) map[spanID]time.Duration {
	type iv struct{ a, b int64 }
	kids := map[spanID][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[spanID]time.Duration, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, curA, curB int64
		open := false
		for _, c := range ivs {
			a, b := max(c.a, s.Start), min(c.b, s.End)
			if b <= a {
				continue
			}
			switch {
			case !open:
				curA, curB, open = a, b, true
			case a > curB:
				covered += curB - curA
				curA, curB = a, b
			case b > curB:
				curB = b
			}
		}
		if open {
			covered += curB - curA
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// byName returns the spans with the given name.
func byName(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rtSnap is a runtime/metrics reading.
type rtSnap struct {
	allocs, bytes uint64
	gcCPU, cpu    float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSnap{allocs: u(0), bytes: u(1), gcCPU: f(2), cpu: f(3)}
}

// executor runs each job as the pool would, with spans around
// cluster.New and Cluster.Run nested under *parent, which the caller
// sets before handing the pool its batch. In counted mode it also gives
// every simulation its own telemetry sink and the auditor.
func (p params) executor(parent *spanID) func(runner.Job) (cluster.Result, error) {
	var op atomic.Int64
	return func(job runner.Job) (cluster.Result, error) {
		id := op.Add(1)
		cfg := job.Config
		var tel *telemetry.Telemetry
		if p.mode == counted {
			tel = telemetry.New(telemetry.Options{})
			cfg.Telemetry, cfg.Audit = tel, true
		}
		s := p.tr.begin("cluster.New", *parent, id)
		cl := cluster.New(cfg)
		p.tr.end(s, nil)
		s = p.tr.begin("cluster.Run", *parent, id)
		res := cl.Run()
		p.tr.end(s, clusterCounts(cl, tel))
		p.tr.addViolations(len(cl.AuditViolations()))
		return res, nil
	}
}

// counterSuffixes map telemetry registry names, which carry a per-node
// prefix, to the layer counts the per-layer metrics are built from.
var counterSuffixes = []struct{ suffix, count string }{
	{".nic.irqs", "nic.irqs"},
	{".nic.itr.fires", "nic.itr_fires"},
	{".ncap.matches", "core.matches"},
	{".ncap.misses", "core.misses"},
	{".driver.sw.matches", "core.matches"},
	{".driver.sw.misses", "core.misses"},
	{".driver.polls", "driver.polls"},
	{".kernel.hardirqs", "oskernel.hardirqs"},
	{".kernel.softirqs", "oskernel.softirqs"},
	{".dispatched", "cpu.dispatched"},
	{".wakes", "cpu.wakes"},
	{".cpu.pstate.transitions", "cpu.pstate_transitions"},
	{".gov.ondemand.invocations", "governor.ondemand_invocations"},
}

// clusterCounts snapshots a finished cluster's switch counters and, when
// it has a telemetry sink, the layer counters of its registry.
func clusterCounts(cl *cluster.Cluster, tel *telemetry.Telemetry) map[string]float64 {
	c := map[string]float64{}
	for _, sw := range cl.Switches() {
		c["netsim.forwarded"] += float64(sw.Forwarded.Value())
		for _, l := range sw.Ports() {
			c["netsim.peak_queue_bytes"] = max(c["netsim.peak_queue_bytes"], float64(l.PeakQueuedBytes()))
		}
	}
	for _, s := range tel.Registry().Export() {
		if strings.Contains(s.Name, ".gov.menu.select.") {
			c["governor.menu_selects"] += s.Value
			continue
		}
		for _, m := range counterSuffixes {
			if strings.HasSuffix(s.Name, m.suffix) && strings.HasPrefix(s.Name, "server") {
				c[m.count] += s.Value
				break
			}
		}
	}
	return c
}
