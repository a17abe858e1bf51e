package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/core"
	"ncap/internal/netsim"
	"ncap/internal/report"
	"ncap/internal/runner"
	"ncap/internal/service"
	"ncap/internal/sim"
)

// probe is one layer probe's reading: value per operation, and how many
// operations it timed.
type probe struct {
	value float64
	count int64
}

// probeBudget is how long each timed probe loop runs.
const probeBudget = 150 * time.Millisecond

// timeBatches runs batch until probeBudget has passed (at least three
// times) and returns the median per-operation time in unit, with the
// number of operations timed.
func timeBatches(unit time.Duration, batch func() int) probe {
	var per []float64
	var n int64
	start := time.Now()
	for len(per) < 3 || time.Since(start) < probeBudget {
		t0 := time.Now()
		k := batch()
		d := time.Since(t0)
		per = append(per, float64(d)/float64(k)/float64(unit))
		n += int64(k)
	}
	return probe{value: quantile(per, 0.5), count: n}
}

type sink struct{ n int }

func (s *sink) Receive(p *netsim.Packet) {
	s.n++
	p.Release()
}

// runProbes times small loops through the public functions of single
// layers. They do not depend on the workload, so every traced run
// reports them.
func runProbes(scratch string, tr *tracer) (map[string]probe, error) {
	out := map[string]probe{}
	noop := func(any) {}
	timed := func(name string, unit time.Duration, batch func() int) {
		s := tr.begin(name, 0, 0)
		out[name] = timeBatches(unit, batch)
		tr.end(s, nil)
	}

	eng := sim.NewEngine()
	timed("sim.probe.schedule_fire_ns", time.Nanosecond, func() int {
		const n = 4096
		for i := 0; i < n; i++ {
			eng.ScheduleArg(sim.Duration(1+i*7919%100_000), noop, nil)
		}
		eng.Run(eng.Now() + 100_000)
		return n
	})
	handles := make([]sim.Handle, 4096)
	timed("sim.probe.schedule_cancel_ns", time.Nanosecond, func() int {
		for i := range handles {
			handles[i] = eng.ScheduleArg(sim.Duration(1+i*7919%100_000), noop, nil)
		}
		for _, h := range handles {
			h.Cancel()
		}
		return len(handles)
	})

	rx := &sink{}
	link := netsim.NewLink(eng, netsim.DefaultLinkConfig(), rx)
	payload := []byte("GET / HTTP/1.1")
	timed("netsim.probe.link_frame_ns", time.Nanosecond, func() int {
		before := rx.n
		for i := 0; i < 256; i++ {
			link.Send(netsim.NewRequest(2, 1, uint64(i), payload))
		}
		eng.Run(eng.Now() + sim.Second)
		return rx.n - before
	})

	mon := core.NewReqMonitor()
	mon.ProgramStrings(app.ApacheProfile().Templates...)
	payloads := [][]byte{[]byte("GET / HTTP/1.1"), []byte("HTTP/1.1 200 OK"), []byte("HEAD / HTTP/1.1"), []byte("PUT /blob")}
	timed("core.probe.inspect_ns", time.Nanosecond, func() int {
		const n = 1 << 16
		for i := 0; i < n; i++ {
			mon.Inspect(payloads[i&3])
		}
		return n
	})

	jobs := starJobs(1, false)
	timed("runner.probe.key_us", time.Microsecond, func() int {
		for _, j := range jobs {
			_ = j.Key()
		}
		return len(jobs)
	})

	dir, err := os.MkdirTemp(scratch, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	pool := runner.New(runner.Options{Jobs: 1, CacheDir: filepath.Join(dir, "cache")})
	job := starJobs(1, true)[0]
	first := pool.RunOne(job)
	if first.Err != nil {
		return nil, fmt.Errorf("probe job: %w", first.Err)
	}
	var missed error
	timed("runner.probe.cached_job_us", time.Microsecond, func() int {
		if o := pool.RunOne(job); !o.CacheHit && missed == nil {
			missed = errors.New("cached RunOne missed the cache")
		}
		return 1
	})
	if missed != nil {
		return nil, missed
	}

	jr, _, err := service.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		return nil, err
	}
	key := job.Key()
	var appends []float64
	s := tr.begin("service.probe.journal_append_sync", 0, 0)
	for i := 0; i < 64; i++ {
		t0 := time.Now()
		if _, err := jr.Append(service.Record{Type: "complete", Sweep: "s000001", Key: key, Tag: job.Tag, Result: &first.Result}, true); err != nil {
			jr.Close()
			return nil, err
		}
		appends = append(appends, float64(time.Since(t0))/float64(time.Microsecond))
	}
	tr.end(s, nil)
	if err := jr.Close(); err != nil {
		return nil, err
	}
	out["service.probe.journal_append_sync_us_p50"] = probe{quantile(appends, 0.5), int64(len(appends))}
	out["service.probe.journal_append_sync_us_p90"] = probe{quantile(appends, 0.9), int64(len(appends))}

	rep := report.New("perfbench", "probe")
	for i := 0; i < 42; i++ {
		rep.Runs = append(rep.Runs, report.FromResult(fmt.Sprintf("probe/%d", i), first.Result))
	}
	var writeErr error
	timed("report.write_ms", time.Millisecond, func() int {
		if err := rep.Write(io.Discard); err != nil {
			writeErr = err
		}
		return 1
	})
	return out, writeErr
}

// shardProbe runs the fleet64 simulation at 2 shards and compares its
// Result with the serial one. serialRun is the serial Cluster.Run wall.
func shardProbe(seed int64, mini bool, serialRun time.Duration, serialDigest string, tr *tracer) (map[string]float64, error) {
	cfg, err := fleetConfig(seed, mini)
	if err != nil {
		return nil, err
	}
	cfg.Shards = 2
	s := tr.begin("cluster.New/shards=2", 0, 2)
	cl := cluster.New(cfg)
	tr.end(s, nil)
	s = tr.begin("cluster.Run/shards=2", 0, 2)
	t0 := time.Now()
	res := cl.Run()
	wall := time.Since(t0)
	tr.end(s, nil)
	st := cl.ShardStats()
	equal := 0.0
	if digestResults([]string{"fleet64"}, []cluster.Result{res}) == serialDigest {
		equal = 1
	}
	out := map[string]float64{
		"cluster.shard.speedup":      serialRun.Seconds() / wall.Seconds(),
		"cluster.shard.rounds":       float64(st.Rounds),
		"cluster.shard.result_equal": equal,
	}
	if st.Rounds > 0 {
		out["cluster.shard.events_per_round"] = float64(res.Events) / float64(st.Rounds)
		out["cluster.shard.stall_frac"] = float64(st.Stalls) / float64(st.Rounds*uint64(st.Shards))
	}
	return out, nil
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
