package cluster

import (
	"reflect"
	"strings"
	"testing"

	"ncap/internal/app"
	"ncap/internal/sim"
	"ncap/internal/telemetry"
)

func telemetryConfig() Config {
	cfg := DefaultConfig(NcapAggr, app.ApacheProfile(), 3000)
	cfg.Warmup = 20 * sim.Millisecond
	cfg.Measure = 60 * sim.Millisecond
	cfg.Drain = 20 * sim.Millisecond
	return cfg
}

// Telemetry is pure observation: attaching a sink must not change the
// Result in any field — same event count, same latencies, same energy.
// A traced run samples the sink's registry, or a private one without a
// sink, and the series must not depend on which.
func TestTelemetryDoesNotPerturbResult(t *testing.T) {
	for _, interval := range []sim.Duration{0, sim.Millisecond} {
		cfg := telemetryConfig()
		cfg.TraceInterval = interval
		plain := New(cfg).Run()

		cfg.Telemetry = telemetry.New(telemetry.Options{})
		observed := New(cfg).Run()

		if !reflect.DeepEqual(plain, observed) {
			t.Fatalf("telemetry perturbed the simulation (trace interval %v):\noff: %+v\non:  %+v", interval, plain, observed)
		}
		if (interval > 0) != (len(plain.Series) == 8) {
			t.Fatalf("trace interval %v gave %d series", interval, len(plain.Series))
		}
	}
}

// The registry must expose the documented component hierarchy under
// stable dotted names, and the dump must agree with the Result where the
// two count the same whole-run quantity.
func TestTelemetryRegistryNames(t *testing.T) {
	cfg := telemetryConfig()
	tel := telemetry.New(telemetry.Options{})
	cfg.Telemetry = tel
	res := New(cfg).Run()

	samples := tel.Registry().Export()
	byName := map[string]telemetry.Sample{}
	for _, s := range samples {
		byName[s.Name] = s
	}
	for _, name := range []string{
		"server.cpu.freq_mhz",
		"server.cpu.energy_j",
		"server.cpu.core0.busy_ns",
		"server.cpu.core3.freq_mhz",
		"server.cpu.core0.cstate.c6.residency_ns",
		"server.kernel.hardirqs",
		"server.nic.rx.packets",
		"server.nic.irqs",
		"server.nic.itr.fires",
		"server.nic.q0.ncap.highs",
		"server.driver.boosts",
		"server.app.served",
		"client0.rtt_ns",
		"client0.sent",
	} {
		if _, ok := byName[name]; !ok {
			t.Errorf("metric %q not registered", name)
		}
	}
	// Whole-run counters can only exceed the measurement-window Result.
	if irqs := byName["server.nic.irqs"].Value; irqs < float64(res.IRQs) {
		t.Errorf("whole-run irqs %v < measured-window irqs %d", irqs, res.IRQs)
	}
	if res.Boosts == 0 {
		t.Fatal("quick ncap.aggr run produced no boosts; registry check is vacuous")
	}

	// Export is sorted by name, so dumps are byte-comparable.
	for i := 1; i < len(samples); i++ {
		if samples[i-1].Name >= samples[i].Name {
			t.Fatalf("export unsorted: %q before %q", samples[i-1].Name, samples[i].Name)
		}
	}

	// The event trace saw the run's power transitions.
	kinds := map[string]bool{}
	for _, e := range tel.Trace().Events() {
		kinds[e.Comp+"."+e.Kind] = true
	}
	for _, k := range []string{"cpu.cstate.enter", "cpu.cstate.exit", "cpu.pstate.set", "nic.irq", "driver.boost"} {
		if !kinds[k] {
			t.Errorf("no %q events emitted", k)
		}
	}
	if !strings.HasPrefix(telemetry.EventsSchema, "ncap-events-") {
		t.Fatalf("events schema %q not versioned", telemetry.EventsSchema)
	}

	// The software decision engine's CIT wakes are observable like the
	// NIC's per-queue ones. Short ncap.sw runs rarely take one, so the
	// check adds some to the live counter.
	cfg = telemetryConfig()
	cfg.Policy = NcapSW
	tel = telemetry.New(telemetry.Options{})
	cfg.Telemetry = tel
	cl := New(cfg)
	cl.Run()
	cl.Driver.SWDecision().Wakes.Add(3)
	sel := tel.Registry().Resolve("server.driver.sw.wakes")
	if want := cl.Driver.SWDecision().Wakes.Value(); len(sel) != 1 || sel.Sum() != float64(want) {
		t.Fatalf("server.driver.sw.wakes: %d matches summing %v, want one reading %d", len(sel), sel.Sum(), want)
	}
}
