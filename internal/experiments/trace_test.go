package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/report"
	"ncap/internal/sim"
	"ncap/internal/stats"
)

// traceGolden renders what ncaptrace writes for five short traced runs:
// Fig. 4, the Fig. 8/9 snapshot pair, an ncap.sw run under per-core DVFS
// at a 1 ms interval, and multi-queue ncap.cons, whose per-core domains
// run at different frequencies. For each run it writes the event count,
// the CSV table and the report series, one JSON line per signal.
func traceGolden(t *testing.T) string {
	t.Helper()
	o := Options{Warmup: 20 * sim.Millisecond, Measure: 20 * sim.Millisecond, Drain: 10 * sim.Millisecond, Seed: 1}
	fig4 := Fig4(o)
	ond, cons := Snapshots(o, app.MemcachedProfile(), cluster.LowLoad, 500*sim.Microsecond)
	sw := Trace(o, cluster.NcapSW, app.ApacheProfile(), cluster.LoadRPS("apache", cluster.MediumLoad),
		sim.Millisecond, func(c *cluster.Config) { c.PerCoreDVFS = true })
	mq := Trace(o, cluster.NcapCons, app.ApacheProfile(), cluster.LoadRPS("apache", cluster.MediumLoad),
		500*sim.Microsecond, func(c *cluster.Config) { c.Queues, c.PerCoreDVFS = 4, true })

	var b strings.Builder
	for _, run := range []struct {
		label string
		tr    TraceResult
	}{{"fig4", fig4}, {"snapshot", ond}, {"snapshot", cons}, {"trace", sw}, {"trace", mq}} {
		fmt.Fprintf(&b, "== %s %s events=%d\n", run.label, run.tr.Policy, run.tr.Result.Events)
		if err := stats.MultiCSV(&b, run.tr.Result.Series...); err != nil {
			t.Fatal(err)
		}
		for _, ts := range run.tr.Result.Series {
			blob, err := json.Marshal(report.FromTimeSeries(ts))
			if err != nil {
				t.Fatal(err)
			}
			b.Write(blob)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// The ncaptrace outputs — CSV bytes, report series and the runs' event
// counts — are pinned byte-for-byte: sampling is pure observation, and
// the golden was captured from the hand-written sampler the registry
// sampling replaced.
func TestTraceGolden(t *testing.T) {
	if got, want := traceGolden(t), golden(t, "trace_quick.golden"); got != want {
		t.Fatalf("trace outputs drifted from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
