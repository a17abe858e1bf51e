package cluster

import (
	"strings"
	"testing"

	"ncap/internal/cpu"
	"ncap/internal/netsim"
	"ncap/internal/nic"
	"ncap/internal/power"
	"ncap/internal/sim"
	"ncap/internal/stats"
	"ncap/internal/telemetry"
)

// seriesRig is a bare node-0 chip and NIC registered under the names the
// sampler reads, plus a software-engine wake counter the test drives.
type seriesRig struct {
	eng   *sim.Engine
	chip  *cpu.Chip
	dev   *nic.NIC
	wakes int64
	s     *seriesSampler
}

func newSeriesRig(chip func(*sim.Engine) *cpu.Chip) *seriesRig {
	r := &seriesRig{eng: sim.NewEngine()}
	r.chip = chip(r.eng)
	r.dev = nic.New(r.eng, 1, nic.DefaultConfig())
	r.dev.Queue(0).SetIRQ(func() {})
	reg := telemetry.NewRegistry()
	r.chip.RegisterTelemetry(reg, nil, "server.cpu")
	r.dev.RegisterTelemetry(reg, nil, "server.nic")
	reg.Counter("server.driver.sw.wakes", func() int64 { return r.wakes })
	r.s = newSeriesSampler(r.eng, reg, sim.Millisecond)
	return r
}

func chipWide(eng *sim.Engine) *cpu.Chip {
	tab := power.DefaultTable()
	return cpu.New(eng, 4, tab, power.DefaultModel(), tab.Max())
}

func (r *seriesRig) col(t *testing.T, name string) *stats.TimeSeries {
	t.Helper()
	for _, s := range r.s.series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no %q series", name)
	return nil
}

func TestSamplerAlignedSeries(t *testing.T) {
	r := newSeriesRig(chipWide)
	r.s.start()
	r.eng.Run(10 * sim.Millisecond)
	if len(r.s.series) != 8 {
		t.Fatalf("series = %d, want 8", len(r.s.series))
	}
	for _, ts := range r.s.series {
		if len(ts.Points) != 10 {
			t.Fatalf("%s has %d points, want 10", ts.Name, len(ts.Points))
		}
	}
}

func TestSamplerBandwidthAndUtil(t *testing.T) {
	r := newSeriesRig(chipWide)
	r.s.start()
	// 1 ms of busy work on core 0 during the first interval, and one
	// received packet (186 wire bytes).
	r.chip.Core(0).Submit(&cpu.Work{Cycles: 3_100_000, Prio: cpu.PrioTask})
	r.dev.Receive(netsim.NewRequest(2, 1, 1, make([]byte, 120)))
	r.eng.Run(2 * sim.Millisecond)

	util := r.col(t, "util")
	if got := util.Points[0].V; got < 0.24 || got > 0.26 {
		t.Fatalf("util[0] = %v, want 0.25 (1 of 4 cores busy)", got)
	}
	if got := util.Points[1].V; got != 0 {
		t.Fatalf("util[1] = %v, want 0", got)
	}
	wantBps := float64(186) / 0.001
	if got := r.col(t, "bw_rx_bytes_per_s").Points[0].V; got != wantBps {
		t.Fatalf("bwrx[0] = %v, want %v", got, wantBps)
	}
}

func TestSamplerCStateFractions(t *testing.T) {
	r := newSeriesRig(chipWide)
	// Park core 1 in C6 permanently.
	r.chip.Core(1).SetIdleDecider(deepDecider{})
	r.chip.Core(1).Submit(&cpu.Work{Cycles: 310, Prio: cpu.PrioTask})
	r.s.start()
	r.eng.Run(5 * sim.Millisecond)
	// From the second interval on, core 1 is fully in C6: 1/4 of core time.
	if got := r.col(t, "t_c6").Points[3].V; got < 0.24 || got > 0.26 {
		t.Fatalf("t_c6 = %v, want 0.25", got)
	}
}

type deepDecider struct{}

func (deepDecider) SelectIdleState(*cpu.Core) power.CState { return power.C6 }
func (deepDecider) OnWake(*cpu.Core, sim.Duration)         {}

func TestSamplerWakeMarkers(t *testing.T) {
	r := newSeriesRig(chipWide)
	r.s.start()
	r.eng.Schedule(1500*sim.Microsecond, sim.Call, func() { r.wakes = 3 }, nil)
	r.eng.Run(3 * sim.Millisecond)
	w := r.col(t, "int_wake").Points
	if w[0].V != 0 || w[1].V != 3 || w[2].V != 0 {
		t.Fatalf("wake markers = %v", w)
	}
}

// Frequency is the mean over per-core domains: the chip frequency under
// chip-wide DVFS, the domains' average under per-core DVFS.
func TestSamplerFreqTracksChip(t *testing.T) {
	r := newSeriesRig(chipWide)
	r.s.start()
	r.eng.Schedule(1500*sim.Microsecond, sim.Call, func() { r.chip.SetPState(r.chip.Table().Min()) }, nil)
	r.eng.Run(3 * sim.Millisecond)
	freq := r.col(t, "freq_ghz")
	if got := freq.Points[0].V; got != 3.1 {
		t.Fatalf("freq[0] = %v", got)
	}
	if got := freq.Points[2].V; got != 0.8 {
		t.Fatalf("freq[2] = %v", got)
	}

	r = newSeriesRig(func(eng *sim.Engine) *cpu.Chip {
		tab := power.DefaultTable()
		return cpu.NewPerCore(eng, 4, tab, power.DefaultModel(), tab.Max())
	})
	r.s.start()
	r.eng.Schedule(1500*sim.Microsecond, sim.Call, func() { r.chip.Core(0).Domain().SetPState(r.chip.Table().Min()) }, nil)
	r.eng.Run(3 * sim.Millisecond)
	if got, want := r.col(t, "freq_ghz").Points[2].V, (0.8+3*3.1)/4; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("per-core freq[2] = %v, want %v", got, want)
	}
}

func TestSamplerCSV(t *testing.T) {
	r := newSeriesRig(chipWide)
	r.s.start()
	r.eng.Run(2 * sim.Millisecond)
	var sb strings.Builder
	if err := stats.MultiCSV(&sb, r.s.series...); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "time_ms,bw_rx_bytes_per_s,bw_tx_bytes_per_s,util,freq_ghz,t_c1,t_c3,t_c6,int_wake\n") {
		t.Fatalf("header = %q", strings.SplitN(out, "\n", 2)[0])
	}
	if got := strings.Count(out, "\n"); got != 3 {
		t.Fatalf("lines = %d, want header + 2 rows", got)
	}
}

func TestSamplerStop(t *testing.T) {
	r := newSeriesRig(chipWide)
	r.s.start()
	r.eng.Run(2 * sim.Millisecond)
	r.s.ticker.Stop()
	r.eng.Run(10 * sim.Millisecond)
	if got := len(r.col(t, "util").Points); got != 2 {
		t.Fatalf("points after stop = %d", got)
	}
}
