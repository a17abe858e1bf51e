package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ncap/internal/app"
	"ncap/internal/experiments"
	"ncap/internal/report"
	"ncap/internal/runner"
	"ncap/internal/service"
	"ncap/internal/sim"
)

// sweepRequests are the service probe's policy sweeps (both workloads)
// with distinct seeds and tiny windows, so orchestration dominates.
func sweepRequests(seed int64, mini bool) []service.SubmitRequest {
	n := 12
	if mini {
		n = 2
	}
	reqs := make([]service.SubmitRequest, n)
	for i := range reqs {
		reqs[i] = service.SubmitRequest{
			Family:  "policies",
			Seed:    uint64(seed)*1000 + uint64(i) + 1,
			Windows: &service.Windows{WarmupNs: 1e6, MeasureNs: 2e6, DrainNs: 1e6},
		}
	}
	return reqs
}

// daemon is an in-process ncapd on loopback with its client.
type daemon struct {
	dir    string
	svc    *service.Service
	srv    *http.Server
	served chan struct{}
	client *service.Client
}

// openDaemon starts ncapd over a fresh state directory with nproc local
// workers and the result cache on.
func openDaemon(scratch string, tr *tracer) (*daemon, error) {
	dir, err := os.MkdirTemp(scratch, "ncapd-")
	if err != nil {
		return nil, err
	}
	s := tr.begin("service.Open", 0, 0)
	defer tr.end(s, nil)
	svc, err := service.Open(service.Options{
		Dir:      filepath.Join(dir, "state"),
		CacheDir: filepath.Join(dir, "cache"),
		Workers:  nproc(),
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		dir:    dir,
		svc:    svc,
		srv:    &http.Server{Handler: service.NewMux(svc)},
		served: make(chan struct{}),
		client: service.NewClient("http://" + ln.Addr().String()),
	}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return d, nil
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.client.HTTP.CloseIdleConnections()
	if err := d.srv.Shutdown(ctx); err != nil {
		d.srv.Close()
	}
	<-d.served
	if err := d.svc.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: closing ncapd: %v\n", err)
	}
	os.RemoveAll(d.dir)
}

// sweep submits one sweep and waits for its report, returning the
// latency the client sees from submit to report.
func (d *daemon) sweep(req service.SubmitRequest, tr *tracer, op int64) (blob []byte, lat time.Duration, id string, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	t0 := time.Now()
	root := tr.begin("sweep", 0, op)
	defer tr.end(root, nil)
	s := tr.begin("service.Client.Submit", root, op)
	id, err = d.client.Submit(req)
	tr.end(s, nil)
	if err != nil {
		return nil, 0, "", fmt.Errorf("submit: %w", err)
	}
	s = tr.begin("service.Client.WaitDone", root, op)
	st, err := d.client.WaitDone(ctx, id)
	tr.end(s, nil)
	if err != nil {
		return nil, 0, id, fmt.Errorf("sweep %s: %w", id, err)
	}
	if st.State != service.StateDone || st.Failed != 0 {
		return nil, 0, id, fmt.Errorf("sweep %s ended %s with %d failed jobs: %s", id, st.State, st.Failed, st.Error)
	}
	s = tr.begin("service.Client.Report", root, op)
	blob, err = d.client.Report(id)
	tr.end(s, nil)
	if err != nil {
		return nil, 0, id, fmt.Errorf("report %s: %w", id, err)
	}
	return blob, time.Since(t0), id, nil
}

// serviceProbe drives an in-process ncapd from one closed-loop client:
// N distinct cold sweeps, then the same N again, served from the result
// cache. It then runs the same jobs directly through runner.Pool, for
// the service's overhead, the cache it left behind and an audited run
// of the first sweep. Reports must match byte for byte, the audited one
// aside (see audit.result_equal); chk counts each sweep and comparison.
func serviceProbe(scratch string, seed int64, mini bool, chk *checker, tr *tracer) (map[string]float64, error) {
	reqs := sweepRequests(seed, mini)
	d, err := openDaemon(scratch, tr)
	if err != nil {
		return nil, err
	}
	defer d.close()
	var svcWall time.Duration
	var cold, warm []float64
	reports := make([][]byte, len(reqs))
	var lastID string
	for round := 0; round < 2; round++ {
		for i, req := range reqs {
			chk.ops++
			blob, lat, id, err := d.sweep(req, tr, int64(round*len(reqs)+i+1))
			if err != nil {
				chk.fail(err.Error())
				continue
			}
			if round == 0 {
				reports[i] = blob
				svcWall += lat
				cold = append(cold, lat.Seconds())
			} else {
				warm = append(warm, lat.Seconds())
				chk.digest(fmt.Sprintf("cached vs cold ncapd report, sweep %d", i), digestBytes(blob), digestBytes(reports[i]))
			}
			lastID = id
		}
	}
	out := map[string]float64{
		"service.cold_sweep_p50_s": quantile(cold, 0.5),
		"service.warm_sweep_p50_s": quantile(warm, 0.5),
	}
	if lastID != "" {
		var rtts []float64
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			if _, err := d.client.Status(lastID); err != nil {
				return nil, err
			}
			rtts = append(rtts, float64(time.Since(t0))/float64(time.Microsecond))
		}
		out["service.http_rtt_us"] = quantile(rtts, 0.5)
	}

	profiles := []app.Profile{app.ApacheProfile(), app.MemcachedProfile()}
	direct := func(opts runner.Options, req service.SubmitRequest) ([]byte, []runner.Outcome, time.Duration, error) {
		opts.Record = true
		pool := runner.New(opts)
		o := experiments.Quick()
		o.Warmup, o.Measure, o.Drain = sim.Duration(req.Windows.WarmupNs), sim.Duration(req.Windows.MeasureNs), sim.Duration(req.Windows.DrainNs)
		o.Seed, o.Runner = req.Seed, pool
		t0 := time.Now()
		s := tr.begin("experiments.Render", 0, int64(req.Seed))
		err := experiments.Render(io.Discard, req.Family, o, profiles)
		tr.end(s, nil)
		if err != nil {
			return nil, nil, 0, err
		}
		render := time.Since(t0)
		outs := pool.Outcomes()
		rep := report.New("ncapd", req.Family)
		rep.AddOutcomes(outs)
		var buf bytes.Buffer
		s = tr.begin("report.Write", 0, int64(req.Seed))
		err = rep.Write(&buf)
		tr.end(s, nil)
		if err != nil {
			return nil, nil, 0, err
		}
		return buf.Bytes(), outs, render, nil
	}

	var directWall time.Duration
	for i, req := range reqs {
		t0 := time.Now()
		blob, _, _, err := direct(runner.Options{Jobs: nproc()}, req)
		directWall += time.Since(t0)
		if err != nil {
			return nil, err
		}
		chk.digest(fmt.Sprintf("direct pool vs ncapd report, sweep %d", i), digestBytes(blob), digestBytes(reports[i]))
	}
	if svcWall > 0 {
		out["service.overhead_frac"] = 1 - directWall.Seconds()/svcWall.Seconds()
	}

	var renders []float64
	var hits, jobs int
	for _, req := range reqs {
		_, outs, render, err := direct(runner.Options{Jobs: nproc(), CacheDir: filepath.Join(d.dir, "cache")}, req)
		if err != nil {
			return nil, err
		}
		renders = append(renders, float64(render)/float64(time.Millisecond))
		for _, o := range outs {
			jobs++
			if o.CacheHit {
				hits++
			}
		}
	}
	out["experiments.render_ms"] = quantile(renders, 0.5)
	if jobs > 0 {
		out["runner.cache_hit_ratio"] = float64(hits) / float64(jobs)
	}

	blob, outs, _, err := direct(runner.Options{Jobs: nproc(), Audit: true}, reqs[0])
	if err != nil {
		return nil, err
	}
	violations := 0
	for _, o := range outs {
		violations += len(o.Violations)
	}
	out["audit.violations"] = float64(violations)
	if digestBytes(blob) == digestBytes(reports[0]) {
		out["audit.result_equal"] = 1
	}
	return out, nil
}
