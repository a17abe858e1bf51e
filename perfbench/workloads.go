package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"ncap/internal/app"
	"ncap/internal/cluster"
	"ncap/internal/experiments"
	"ncap/internal/runner"
	"ncap/internal/sim"
	"ncap/internal/telemetry"
)

// mode selects how a pass calls into the program. Timed runs use only
// untraced, the path a user of the program takes.
type mode int

const (
	untraced mode = iota
	// traced records spans around every layer call and runs jobs through
	// a pool executor that opens them.
	traced
	// counted is traced with Config.Telemetry and Config.Audit set on
	// every simulation, for per-layer counts and invariant checks.
	counted
)

// params are one pass's inputs: everything the program sees is
// generated from seed.
type params struct {
	seed    int64
	mini    bool // minimal size: the canary and the self-test
	mode    mode
	tr      *tracer // nil when untraced
	parent  spanID  // span the pass's set-up calls nest under
	scratch string  // directory for caches and service state
}

// section is a prepared workload's timed section; it takes the span its
// calls nest under.
type section func(root spanID) pass

// pass is what one timed section did and produced.
type pass struct {
	setup    []time.Duration // set-up repetitions before the section
	wall     time.Duration
	requests int64 // simulated client requests completed
	sims     int64 // simulations (jobs) finished, cache hits included
	events   uint64
	ops      int64
	failed   int64
	digest   string
	results  []cluster.Result // the simulation workloads' Results, in order
	busy     time.Duration    // Σ worker time of the pool's jobs (traced passes)
	workers  int
	notes    []string // why ops failed
}

type workload struct {
	name    string
	prepare func(p params) (section, error)
}

func workloads() []workload {
	return []workload{
		{name: "star-matrix", prepare: prepareStar},
		{name: "fleet64", prepare: prepareFleet},
		{name: "overload", prepare: prepareOverload},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// nproc bounds every pool, worker set and connection count.
func nproc() int { return runtime.NumCPU() }

// simSeed maps the benchmark seed to the simulation seed. Seed 1 is the
// repository's default experiment seed.
func simSeed(seed int64) uint64 { return uint64(seed) }

// miniWindows are the minimal-size windows of the canary and self-test.
func miniWindows(c *cluster.Config) {
	c.Warmup, c.Measure, c.Drain = sim.Millisecond, 4*sim.Millisecond, sim.Millisecond
}

// starJobs is the paper's 42-cell matrix on the 4-node star: 7 policies
// × {apache, memcached} × {low, medium, high} at Full() windows.
func starJobs(seed int64, mini bool) []runner.Job {
	o := experiments.Full()
	var jobs []runner.Job
	for _, prof := range []app.Profile{app.ApacheProfile(), app.MemcachedProfile()} {
		for _, lvl := range []cluster.LoadLevel{cluster.LowLoad, cluster.MediumLoad, cluster.HighLoad} {
			for _, pol := range cluster.AllPolicies() {
				cfg := cluster.DefaultConfig(pol, prof, cluster.LoadRPS(prof.Name, lvl))
				cfg.Warmup, cfg.Measure, cfg.Drain = o.Warmup, o.Measure, o.Drain
				if mini {
					miniWindows(&cfg)
				}
				cfg.Seed = simSeed(seed)
				jobs = append(jobs, runner.Job{
					Tag:    fmt.Sprintf("star/%s/%s/%s", prof.Name, lvl, pol),
					Config: cfg,
				})
			}
		}
	}
	return jobs
}

func prepareStar(p params) (section, error) {
	s := p.tr.begin("runner.New", p.parent, 0)
	jobs := starJobs(p.seed, p.mini)
	var batch spanID
	opts := runner.Options{Jobs: nproc()}
	if p.mode != untraced {
		opts.Executor = p.executor(&batch)
	}
	pool := runner.New(opts)
	p.tr.end(s, nil)
	run := func(root spanID) pass {
		t0 := time.Now()
		s := p.tr.begin("runner.Pool.Run", root, 0)
		batch = s
		outs := pool.Run(jobs)
		p.tr.end(s, nil)
		ps := pass{wall: time.Since(t0), workers: pool.Workers()}
		for _, o := range outs {
			ps.addJob(o.Job.Tag, o.Result, o.Err, o.Elapsed)
		}
		ps.digest = digestResults(jobTags(outs), ps.results)
		return ps
	}
	return run, nil
}

func jobTags(outs []runner.Outcome) []string {
	tags := make([]string, len(outs))
	for i, o := range outs {
		tags[i] = o.Job.Tag
	}
	return tags
}

// addJob folds one finished simulation into the pass.
func (ps *pass) addJob(tag string, res cluster.Result, err error, elapsed time.Duration) {
	ps.ops++
	ps.sims++
	ps.busy += elapsed
	ps.results = append(ps.results, res)
	if err != nil {
		ps.failed++
		ps.notes = append(ps.notes, fmt.Sprintf("job %s failed: %v", tag, firstLine(err.Error())))
		return
	}
	if msg := sane(res); msg != "" {
		ps.failed++
		ps.notes = append(ps.notes, fmt.Sprintf("job %s: %s", tag, msg))
	}
	ps.requests += res.Completed
	ps.events += res.Events
}

// fleetConfig is one serial simulation of E14's fleet4x16 shape (64
// servers, 32 clients, 4 ToRs, 2 spines) at E14's per-server low load.
func fleetConfig(seed int64, mini bool) (cluster.Config, error) {
	prof := app.ApacheProfile()
	for _, sh := range experiments.E14Shapes() {
		if sh.Name != "fleet4x16" {
			continue
		}
		load := cluster.LoadRPS(prof.Name, cluster.LowLoad) * float64(sh.Spec.Servers())
		cfg := cluster.DefaultConfig(cluster.NcapCons, prof, load)
		cfg.Topology = sh.Spec
		cfg.Warmup, cfg.Measure, cfg.Drain = 20*sim.Millisecond, 100*sim.Millisecond, 20*sim.Millisecond
		if mini {
			miniWindows(&cfg)
		}
		cfg.Seed = simSeed(seed)
		return cfg, nil
	}
	return cluster.Config{}, errors.New("E14 has no fleet4x16 shape")
}

func prepareFleet(p params) (section, error) {
	cfg, err := fleetConfig(p.seed, p.mini)
	if err != nil {
		return nil, err
	}
	var tel *telemetry.Telemetry
	if p.mode == counted {
		tel = telemetry.New(telemetry.Options{})
		cfg.Telemetry, cfg.Audit = tel, true
	}
	s := p.tr.begin("cluster.New", p.parent, 1)
	cl := cluster.New(cfg)
	p.tr.end(s, nil)
	run := func(root spanID) pass {
		t0 := time.Now()
		s := p.tr.begin("cluster.Run", root, 1)
		res := cl.Run()
		p.tr.end(s, clusterCounts(cl, tel))
		p.tr.addViolations(len(cl.AuditViolations()))
		ps := pass{wall: time.Since(t0)}
		ps.addJob("fleet64", res, nil, ps.wall)
		ps.digest = digestResults([]string{"fleet64"}, ps.results)
		return ps
	}
	return run, nil
}

// overloadOptions is E13 for memcached at Quick() windows, the windows
// ncapsweep -exp e13 uses by default.
func overloadOptions(seed int64, mini bool) experiments.Options {
	o := experiments.Quick()
	if mini {
		o.Warmup, o.Measure, o.Drain = 2*sim.Millisecond, 8*sim.Millisecond, 2*sim.Millisecond
	}
	o.Seed = simSeed(seed)
	return o
}

func prepareOverload(p params) (section, error) {
	s := p.tr.begin("runner.New", p.parent, 0)
	o := overloadOptions(p.seed, p.mini)
	var batch spanID
	opts := runner.Options{Jobs: nproc()}
	if p.mode != untraced {
		// Record is the only way to see each job's Outcome behind
		// OverloadSweep, for runner.worker_busy_frac.
		opts.Executor, opts.Record = p.executor(&batch), true
	}
	o.Runner = runner.New(opts)
	p.tr.end(s, nil)
	run := func(root spanID) pass {
		t0 := time.Now()
		s := p.tr.begin("experiments.OverloadSweep", root, 0)
		batch = s
		rows := experiments.OverloadSweep(o, app.MemcachedProfile())
		p.tr.end(s, nil)
		ps := pass{wall: time.Since(t0), workers: o.Runner.Workers()}
		elapsed := make([]time.Duration, len(rows))
		if outs := o.Runner.Outcomes(); len(outs) == len(rows) {
			for i, oc := range outs {
				elapsed[i] = oc.Elapsed
			}
		}
		tags := make([]string, len(rows))
		for i, r := range rows {
			tags[i] = fmt.Sprintf("e13/%s/%s/%g/%s", r.Scenario, r.Mode, r.Frac, r.Policy)
			var err error
			if r.Err != "" {
				err = errors.New(r.Err)
			}
			ps.addJob(tags[i], r.Result, err, elapsed[i])
		}
		ps.digest = digestResults(tags, ps.results)
		return ps
	}
	return run, nil
}

// sane reports what is impossible about a Result, or "".
func sane(r cluster.Result) string {
	l := r.Latency
	switch {
	case r.Completed <= 0 || r.Events == 0:
		return "no requests completed"
	case !(l.P50 <= l.P90 && l.P90 <= l.P95 && l.P95 <= l.P99 && l.P99 <= l.Max):
		return "latency percentiles out of order"
	case !(r.EnergyJ > 0):
		return "no energy spent"
	}
	return ""
}
