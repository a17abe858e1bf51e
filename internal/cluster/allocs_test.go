package cluster

import (
	"runtime"
	"testing"

	"ncap/internal/app"
	"ncap/internal/audit"
	"ncap/internal/race"
	"ncap/internal/sim"
	"ncap/internal/topology"
)

// TestRequestPathAllocBudget pins the zero-allocation request path: the
// per-request and per-packet steps in app, kernel, driver, NIC, link and
// CPU draw their state from component-local free lists, so a whole run —
// warmup, lazy pool growth and Result assembly included — allocates at
// most one heap object per completed request. It covers every policy on
// both services at medium load, the overload stack (deadline admission,
// retries, breaker) and a rack-of-16 topology.
func TestRequestPathAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates; the budget is checked in normal builds")
	}
	if audit.Strict {
		t.Skip("audit builds record every packet and check invariants, which allocates; the budget is checked in normal builds")
	}
	short := func(cfg Config) Config {
		cfg.Warmup = 20 * sim.Millisecond
		cfg.Measure = 80 * sim.Millisecond
		cfg.Drain = 20 * sim.Millisecond
		return cfg
	}
	type tc struct {
		name string
		cfg  Config
	}
	var cases []tc
	for _, prof := range []app.Profile{app.ApacheProfile(), app.MemcachedProfile()} {
		for _, p := range AllPolicies() {
			cases = append(cases, tc{string(p) + "/" + prof.Name,
				short(DefaultConfig(p, prof, LoadRPS(prof.Name, MediumLoad)))})
		}
	}
	mc := app.MemcachedProfile()
	overload := short(DefaultConfig(NcapAggr, mc, 2*LoadRPS(mc.Name, HighLoad)))
	overload.Overload = resilientSpec(mc)
	cases = append(cases, tc{"overload/memcached", overload})
	// Sixteen servers' lazily grown pools take a few thousand objects
	// before the first request completes, so the rack runs at 6 KRPS per
	// server for a longer window to amortize them.
	rack := short(DefaultConfig(NcapCons, app.ApacheProfile(), 6000*16))
	rack.Measure = 160 * sim.Millisecond
	rack.Topology = topology.Rack(16, 8)
	cases = append(cases, tc{"rack16/apache", rack})

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sim := New(c.cfg)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res := sim.Run()
			runtime.ReadMemStats(&after)
			if res.Completed == 0 {
				t.Fatal("no requests completed")
			}
			allocs := after.Mallocs - before.Mallocs
			perReq := float64(allocs) / float64(res.Completed)
			t.Logf("%d allocs / %d completed = %.3f allocs/req", allocs, res.Completed, perReq)
			if perReq > 1.0 {
				t.Errorf("%.3f allocs per completed request, budget 1.0", perReq)
			}
		})
	}
}
