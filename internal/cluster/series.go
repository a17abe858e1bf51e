package cluster

import (
	"ncap/internal/sim"
	"ncap/internal/stats"
	"ncap/internal/telemetry"
)

// seriesColumns derive the paper's time-series signals — the Fig. 4
// correlation trace and the Fig. 8/9 BW(Rx)-vs-F snapshots with INT(wake)
// markers — from node 0's registry metrics, in CSV column order. Each
// column sums the metrics its patterns match and turns the sum into one
// value per sampling interval. Every summed value is an integer below
// 2^53, so the sums are exact in any order.
var seriesColumns = []struct {
	name     string
	derive   func(cur, prev float64, n int, dt sim.Duration) float64
	patterns []string
}{
	{"bw_rx_bytes_per_s", rate, []string{"server.nic.rx.bytes"}},
	{"bw_tx_bytes_per_s", rate, []string{"server.nic.tx.bytes"}},
	{"util", coreShare, []string{"server.cpu.core*.busy_ns"}},
	{"freq_ghz", meanGHz, []string{"server.cpu.core*.freq_mhz"}},
	{"t_c1", coreShare, []string{"server.cpu.core*.cstate.c1.residency_ns"}},
	{"t_c3", coreShare, []string{"server.cpu.core*.cstate.c3.residency_ns"}},
	{"t_c6", coreShare, []string{"server.cpu.core*.cstate.c6.residency_ns"}},
	// NCAP's proactive-transition interrupts (IT_HIGH boosts plus CIT
	// wakes) from the NIC's per-queue blocks or the driver's software
	// engine; the patterns a policy does not use match nothing.
	{"int_wake", delta, []string{
		"server.nic.q*.ncap.highs", "server.nic.q*.ncap.wakes",
		"server.driver.sw.highs", "server.driver.sw.wakes",
	}},
}

// rate is the summed counters' increase per second.
func rate(cur, prev float64, _ int, dt sim.Duration) float64 { return (cur - prev) / dt.Seconds() }

// coreShare is the summed per-core meters' increase as a fraction of the
// interval's core-time (n matched cores).
func coreShare(cur, prev float64, n int, dt sim.Duration) float64 {
	return (cur - prev) / (float64(dt) * float64(n))
}

// meanGHz is the mean of n per-core MHz gauges, in GHz.
func meanGHz(cur, _ float64, n int, _ sim.Duration) float64 { return cur / float64(n) / 1000 }

// delta is the summed counters' increase.
func delta(cur, prev float64, _ int, _ sim.Duration) float64 { return cur - prev }

// seriesSampler samples seriesColumns every interval of the measurement
// window. Its ticker is the only thing it schedules.
type seriesSampler struct {
	eng    *sim.Engine
	ticker *sim.Ticker
	sel    []telemetry.Selection
	prev   []float64
	last   sim.Time
	series []*stats.TimeSeries
}

// newSeriesSampler resolves every column's patterns in reg once.
func newSeriesSampler(eng *sim.Engine, reg *telemetry.Registry, interval sim.Duration) *seriesSampler {
	s := &seriesSampler{eng: eng, prev: make([]float64, len(seriesColumns))}
	for _, col := range seriesColumns {
		var sel telemetry.Selection
		for _, p := range col.patterns {
			sel = append(sel, reg.Resolve(p)...)
		}
		s.sel = append(s.sel, sel)
		s.series = append(s.series, &stats.TimeSeries{Name: col.name})
	}
	s.ticker = sim.NewTicker(eng, interval, s.sample)
	return s
}

// start takes the baseline; the first point lands one interval later.
func (s *seriesSampler) start() {
	s.last = s.eng.Now()
	for i, sel := range s.sel {
		s.prev[i] = sel.Sum()
	}
	s.ticker.Start()
}

func (s *seriesSampler) sample() {
	now := s.eng.Now()
	dt := now - s.last
	for i, col := range seriesColumns {
		cur := s.sel[i].Sum()
		s.series[i].Add(now, col.derive(cur, s.prev[i], len(s.sel[i]), dt))
		s.prev[i] = cur
	}
	s.last = now
}
