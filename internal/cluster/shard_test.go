package cluster

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ncap/internal/app"
	"ncap/internal/audit"
	"ncap/internal/sim"
	"ncap/internal/telemetry"
	"ncap/internal/topology"
	wl "ncap/internal/workload"
)

// runSharded executes cfg at the given shard count.
func runSharded(cfg Config, shards int) Result {
	cfg.Shards = shards
	return New(cfg).Run()
}

// assertShardCounts runs cfg at every shard count and demands each
// Result deeply equal the serial one — the tentpole contract: sharding
// is an execution strategy, not an experiment parameter.
func assertShardCounts(t *testing.T, cfg Config, counts ...int) {
	t.Helper()
	serial := runSharded(cfg, 1)
	for _, n := range counts {
		if got := runSharded(cfg, n); !reflect.DeepEqual(serial, got) {
			t.Errorf("shards=%d diverged from serial:\nserial  %+v\nsharded %+v", n, serial, got)
		}
	}
}

// The paper's star, partitioned: server+switch on shard 0, clients
// spread. Every client access link is a boundary, so this exercises the
// chattiest partitioning.
func TestShardedEqualityStar(t *testing.T) {
	assertShardCounts(t, shortConfig(NcapCons, app.ApacheProfile(), 24_000), 2, 3)
}

// The E14 rack-of-16 under every mandated shard count.
func TestShardedEqualityRack16(t *testing.T) {
	cfg := shardFleetConfig(topology.Rack(16, 8), 1500)
	assertShardCounts(t, cfg, 2, 4)
}

// The E14 4-rack/2-spine fleet shape under every mandated shard count.
// At Shards == 4 the round-robin assignment aligns racks with shards, so
// only the spine trunks and spine-sharded endpoints bridge.
func TestShardedEqualityFleet(t *testing.T) {
	cfg := shardFleetConfig(topology.Fleet(4, 2, 4, 2), 1500)
	assertShardCounts(t, cfg, 2, 4)
}

// Sharding must also commute with the harder execution modes: fault
// injection (per-link seeded streams, duplicate frames crossing shard
// boundaries) and trace replay (pre-scheduled sends landing on each
// client's shard engine).
func TestShardedEqualityFaulted(t *testing.T) {
	assertShardCounts(t, lossyConfig(NcapCons, app.ApacheProfile(), 24_000), 2, 3)
}

func TestShardedEqualityReplay(t *testing.T) {
	cfg := shortConfig(NcapAggr, app.MemcachedProfile(), 35_000)
	cfg.Traffic = &wl.Spec{Scenario: wl.Scenario{Name: wl.ScenarioFlashCrowd}}
	assertShardCounts(t, cfg, 2, 3)
}

// shardFleetConfig shapes a fleet run small enough for the unit suite
// (the full 64-server E14 windows live in the benchmark and CI smoke).
func shardFleetConfig(spec *topology.Spec, perServer float64) Config {
	cfg := shortConfig(NcapCons, app.ApacheProfile(), perServer*float64(spec.Servers()))
	cfg.Warmup = 20 * sim.Millisecond
	cfg.Measure = 60 * sim.Millisecond
	cfg.Drain = 20 * sim.Millisecond
	cfg.Topology = spec
	return cfg
}

// A sharded run must actually shard: partitions constructed, boundary
// links bridged, rounds synchronized, frames injected — and a serial run
// must report exactly one shard with zeroed counters.
func TestShardStats(t *testing.T) {
	cfg := shardFleetConfig(topology.Rack(8, 4), 1500)
	cfg.Shards = 4
	cl := New(cfg)
	cl.Run()
	st := cl.ShardStats()
	if audit.Strict {
		// The audit build tag arms the auditor on every run, and an
		// audited run clamps to serial by design.
		if st.Shards != 1 || st.Rounds != 0 || st.Injected != 0 {
			t.Fatalf("strict-audit run did not clamp to serial: %+v", st)
		}
	} else if st.Shards != 4 || st.Bridged == 0 || st.Rounds == 0 || st.Injected == 0 {
		t.Fatalf("sharded run did not coordinate: %+v", st)
	}

	cfg.Shards = 1
	cl = New(cfg)
	cl.Run()
	if st := cl.ShardStats(); st.Shards != 1 || st.Rounds != 0 || st.Injected != 0 {
		t.Fatalf("serial run reports shard activity: %+v", st)
	}
}

// Single-observer execution modes — telemetry, audit, time-series
// tracing, trace recording — clamp back to serial, as does a zero link
// latency (no lookahead to synchronize with). The shard count also
// clamps to the number of partitionable units. Under the audit build tag
// every run is audited, so every count clamps to serial.
func TestEffectiveShardClamps(t *testing.T) {
	want := func(n int) int {
		if audit.Strict {
			return 1
		}
		return n
	}
	base := shortConfig(NcapCons, app.ApacheProfile(), 24_000)
	base.Shards = 4

	if got := base.effectiveShards(); got != want(4) {
		t.Fatalf("base effectiveShards = %d, want %d", got, want(4))
	}

	cases := map[string]func(*Config){
		"telemetry": func(c *Config) { c.Telemetry = telemetry.New(telemetry.Options{}) },
		"audit":     func(c *Config) { c.Audit = true },
		"trace":     func(c *Config) { c.TraceInterval = sim.Millisecond },
		"recording": func(c *Config) { c.Traffic = &wl.Spec{Record: true} },
		"zero-lat":  func(c *Config) { c.Link.Latency = 0 },
	}
	for name, mut := range cases {
		cfg := base
		mut(&cfg)
		if got := cfg.effectiveShards(); got != 1 {
			t.Errorf("%s: effectiveShards = %d, want 1 (serial clamp)", name, got)
		}
	}

	cfg := base
	cfg.Shards = 64 // star has 1 server + 3 clients
	if got := cfg.effectiveShards(); got != want(4) {
		t.Errorf("unit clamp: effectiveShards = %d, want %d", got, want(4))
	}
	cfg.Shards = 0
	if got := cfg.effectiveShards(); got != 1 {
		t.Errorf("Shards=0: effectiveShards = %d, want 1 (serial)", got)
	}
}

// Shards is an execution knob like -jobs: it must never leak into the
// serialized config, whose JSON feeds the runner's cache key.
func TestShardsExcludedFromConfigJSON(t *testing.T) {
	cfg := DefaultConfig(NcapCons, app.ApacheProfile(), 24_000)
	cfg.Shards = 8
	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "Shards") {
		t.Fatalf("Shards leaked into config JSON (cache keys would fork): %s", blob)
	}
}
