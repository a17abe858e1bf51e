package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ncap/internal/sim"
)

func TestNilHandlesNoOp(t *testing.T) {
	var tel *Telemetry
	if tel.Enabled() {
		t.Fatal("nil telemetry reports enabled")
	}
	reg, tr := tel.Registry(), tel.Trace()
	if reg != nil || tr != nil {
		t.Fatal("nil telemetry returned live handles")
	}
	// Every instrumentation call a component makes must be safe on the
	// disabled handles.
	reg.Counter("a", func() int64 { return 1 })
	reg.Gauge("b", func() float64 { return 1 })
	reg.Meter("c", func() sim.Duration { return 1 })
	h := reg.Histogram("d")
	h.Record(5 * sim.Microsecond)
	if h.Count() != 0 || reg.Len() != 0 || reg.Export() != nil {
		t.Fatal("nil registry retained state")
	}
	tr.Emit(Event{Kind: "x"})
	if tr.Len() != 0 || tr.Total() != 0 || tr.Events() != nil {
		t.Fatal("nil trace retained state")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), EventsSchema) {
		t.Fatalf("nil trace JSONL missing schema stamp: %q", buf.String())
	}
}

func TestRegistryExportSortedAndStable(t *testing.T) {
	build := func() *Registry {
		reg := NewRegistry()
		// Register deliberately out of order.
		reg.Gauge("server.cpu.freq_mhz", func() float64 { return 800 })
		reg.Counter("server.nic.itr.fires", func() int64 { return 42 })
		reg.Meter("server.cpu.core0.cstate.c6.residency_ns", func() sim.Duration { return 123 })
		reg.Counter("client0.sent", func() int64 { return 7 })
		return reg
	}
	a, b := build().Export(), build().Export()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical registries exported differently")
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Name >= a[i].Name {
			t.Fatalf("export not sorted: %q before %q", a[i-1].Name, a[i].Name)
		}
	}
	if a[0].Name != "client0.sent" || a[0].Kind != KindCounter || a[0].Value != 7 {
		t.Fatalf("unexpected first sample %+v", a[0])
	}
}

func TestRegistryRejectsDuplicatesAndBadNames(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x.y", func() int64 { return 0 })
	for _, fn := range []func(){
		func() { reg.Counter("x.y", func() int64 { return 0 }) },
		func() { reg.Gauge("", func() float64 { return 0 }) },
		func() { reg.Counter("bad name", func() int64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad registration did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestRegistryResolve(t *testing.T) {
	r := NewRegistry()
	r.Counter("srv.core0.busy", func() int64 { return 2 })
	r.Meter("srv.core1.busy", func() sim.Duration { return 5 })
	r.Gauge("srv.core1.freq", func() float64 { return 7 })
	r.Histogram("srv.core2.busy")
	r.Counter("srv1.core0.busy", func() int64 { return 100 })

	for _, c := range []struct {
		pattern string
		n       int
		sum     float64
	}{
		{"srv.core*.busy", 2, 7}, // histograms never match
		{"srv.core1.freq", 1, 7},
		{"srv.nic.q*.wakes", 0, 0},
		{"srv*.core0.busy", 2, 102},
	} {
		sel := r.Resolve(c.pattern)
		if len(sel) != c.n || sel.Sum() != c.sum {
			t.Errorf("Resolve(%q): %d matches summing %v, want %d summing %v",
				c.pattern, len(sel), sel.Sum(), c.n, c.sum)
		}
	}
	var nilReg *Registry
	if sel := nilReg.Resolve("x"); len(sel) != 0 || sel.Sum() != 0 {
		t.Fatal("nil registry resolved metrics")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("malformed pattern accepted")
		}
	}()
	r.Resolve("srv.[")
}

func TestHistogramBucketsAndSnapshot(t *testing.T) {
	h := NewRegistry().Histogram("lat")
	h.Record(0)
	h.Record(1)
	h.Record(3)                    // [2,4)
	h.Record(900 * sim.Nanosecond) // [512,1024)
	h.Record(-5)                   // clamped to 0
	s := h.Snapshot()
	if s.Count != 5 || s.MinNs != 0 || s.MaxNs != 900 {
		t.Fatalf("snapshot %+v", s)
	}
	want := []HistogramBucket{{1, 2}, {2, 1}, {4, 1}, {1024, 1}}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	if s.SumNs != 0+1+3+900 {
		t.Fatalf("sum = %d", s.SumNs)
	}
}

func TestEventTraceRingWrap(t *testing.T) {
	tr := NewEventTrace(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{T: sim.Time(i), Comp: "nic", Kind: "irq"})
	}
	if tr.Len() != 4 || tr.Total() != 10 || tr.Dropped() != 6 {
		t.Fatalf("len=%d total=%d dropped=%d", tr.Len(), tr.Total(), tr.Dropped())
	}
	evs := tr.Events()
	for i, e := range evs {
		if e.T != sim.Time(6+i) {
			t.Fatalf("event %d has T=%v, want %d (oldest-first after wrap)", i, e.T, 6+i)
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := NewEventTrace(8)
	tr.Emit(Event{T: 100, Comp: "cpu", Kind: "cstate.enter", Core: 2, V: 6})
	tr.Emit(Event{T: 200, Comp: "nic", Kind: "irq", V: 1, Detail: "rx"})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 events, got %d lines", len(lines))
	}
	if !strings.Contains(lines[0], EventsSchema) {
		t.Fatalf("header %q missing schema", lines[0])
	}
	if !strings.Contains(lines[1], `"kind":"cstate.enter"`) || !strings.Contains(lines[2], `"detail":"rx"`) {
		t.Fatalf("event lines wrong: %q / %q", lines[1], lines[2])
	}
}
