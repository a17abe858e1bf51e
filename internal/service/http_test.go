package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ncap/internal/cluster"
	"ncap/internal/report"
	"ncap/internal/runner"
)

func startServer(t *testing.T, mutate func(*Options)) (*Service, *Client) {
	t.Helper()
	s := openService(t, t.TempDir(), mutate)
	ts := httptest.NewServer(NewMux(s))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, NewClient(ts.URL)
}

// TestHTTPSubmitWatchFetch is the full client round trip: submit over
// HTTP, stream progress over SSE until done, fetch report and table.
func TestHTTPSubmitWatchFetch(t *testing.T) {
	_, c := startServer(t, nil)

	id, err := c.Submit(tinyE11())
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	last, err := c.Watch(context.Background(), id, 0, func(e Event) { events = append(events, e) })
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if len(events) == 0 || events[0].Type != "submitted" || events[len(events)-1].Type != "done" {
		t.Fatalf("event stream malformed: %d events", len(events))
	}
	for i, e := range events {
		if e.Seq != i+1 {
			t.Fatalf("event %d has cursor %d — gaps or reordering in the stream", i, e.Seq)
		}
	}
	if last != events[len(events)-1].Seq {
		t.Fatalf("Watch returned cursor %d, last event was %d", last, events[len(events)-1].Seq)
	}

	st, err := c.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Completed != e11Jobs {
		t.Fatalf("status %+v", st)
	}
	sts, err := c.List()
	if err != nil || len(sts) != 1 || sts[0].ID != id {
		t.Fatalf("list: %+v, %v", sts, err)
	}

	blob, err := c.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	var rep report.Report
	if err := json.Unmarshal(blob, &rep); err != nil || len(rep.Runs) != e11Jobs {
		t.Fatalf("report: %d runs, err %v", len(rep.Runs), err)
	}
	if tbl, err := c.Table(id); err != nil || !strings.Contains(string(tbl), "policy") {
		t.Fatalf("table: err %v", err)
	}
}

// TestHTTPWatchCursorResume: a client that disconnects and reconnects
// with its last cursor sees exactly the tail, no gaps, no repeats.
func TestHTTPWatchCursorResume(t *testing.T) {
	_, c := startServer(t, nil)
	id, err := c.Submit(tinyE11())
	if err != nil {
		t.Fatal(err)
	}
	// First connection: take a few events, then hang up.
	ctx, cancel := context.WithCancel(context.Background())
	var head []Event
	_, _ = c.Watch(ctx, id, 0, func(e Event) {
		head = append(head, e)
		if len(head) == 3 {
			cancel()
		}
	})
	if len(head) < 3 {
		t.Fatalf("first connection saw %d events", len(head))
	}
	cursor := head[len(head)-1].Seq

	var tail []Event
	if _, err := c.Watch(context.Background(), id, cursor, func(e Event) { tail = append(tail, e) }); err != nil {
		t.Fatal(err)
	}
	if len(tail) == 0 || tail[0].Seq != cursor+1 {
		t.Fatalf("resume from %d started at %d", cursor, tail[0].Seq)
	}
	if tail[len(tail)-1].Type != "done" {
		t.Fatal("resumed stream did not reach done")
	}
}

// TestHTTPMalformedRequests: every bad body is a 400 with a JSON error —
// the decoder never panics and never half-accepts.
func TestHTTPMalformedRequests(t *testing.T) {
	s, c := startServer(t, func(o *Options) { o.Workers = 0 })
	for _, body := range []string{
		``,
		`{`,
		`not json at all`,
		`[]`,
		`{"family":"e11"} trailing`,
		`{"family":"nope"}`,
		`{"family":"e11","bogus_field":1}`,
		`{"family":"e11","workload":"oracle"}`,
		`{"family":"e11","windows":{"warmup_ns":0,"measure_ns":1,"drain_ns":1}}`,
		`{"family":"e11","overload":{"admit":"martian"}}`,
		`{"family":"e11","overload":{"maxInflight":-1}}`,
		`{"family":"e11","overload":{"codelTarget":-1}}`,
		`{"family":"e11","overload":{"codelInterval":-1}}`,
		`{"family":"e11","overload":{"dedupCap":-1}}`,
		`{"family":"e11","overload":{"retryBurst":-1}}`,
		`{"family":"e11","overload":{"breakerProbes":-1}}`,
		`{"family":"e11","overload":{"breakerCooldown":-1}}`,
		`{"family":"e11","seed":"not a number"}`,
		"{\"family\":\"e11\",\"workload\":\"\x00\"}",
	} {
		resp, err := c.HTTP.Post(c.Base+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %q: %v", body, err)
		}
		var e struct {
			Error string `json:"error"`
		}
		code := resp.StatusCode
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, code)
		}
		if derr != nil || e.Error == "" {
			t.Fatalf("body %q: error document missing (%v)", body, derr)
		}
	}
	if n := len(s.List()); n != 0 {
		t.Fatalf("%d sweeps created from malformed requests", n)
	}

	// Unknown resources are 404/410, not panics.
	for _, probe := range []struct {
		method, path string
		want         int
	}{
		{"GET", "/v1/sweeps/s999999", http.StatusNotFound},
		{"GET", "/v1/sweeps/s999999/report", http.StatusNotFound},
		{"GET", "/v1/sweeps/s999999/events", http.StatusOK}, // SSE closes immediately for unknown id
		{"POST", "/v1/leases/bogus/heartbeat", http.StatusGone},
		{"POST", "/v1/leases/bogus/complete", http.StatusGone},
		{"POST", "/v1/leases/bogus/fail", http.StatusGone},
	} {
		req, _ := http.NewRequest(probe.method, c.Base+probe.path, strings.NewReader(`{}`))
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.HTTP.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", probe.method, probe.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != probe.want {
			t.Fatalf("%s %s: status %d, want %d", probe.method, probe.path, resp.StatusCode, probe.want)
		}
	}
}

// TestHTTPLeaseAPI drives the remote-worker endpoints by hand: lease,
// heartbeat, complete — and checks 204 when the queue is empty.
func TestHTTPLeaseAPI(t *testing.T) {
	_, c := startServer(t, func(o *Options) {
		o.Workers = 0
		o.LeaseTTL = 5 * time.Second
	})

	// Empty queue: 204, ok=false.
	if _, ok, err := c.Lease("w1"); err != nil || ok {
		t.Fatalf("lease on empty queue: ok=%v err=%v", ok, err)
	}

	id, err := c.Submit(tinyE11())
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(runner.Options{Jobs: 1})
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, err := c.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck: %+v", st)
		}
		g, ok, err := c.Lease("w1")
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			time.Sleep(time.Millisecond)
			continue
		}
		if g.LeaseID == "" || g.Sweep != id || len(g.Config) == 0 {
			t.Fatalf("bad grant: %+v", g)
		}
		if alive, err := c.Heartbeat(g.LeaseID); err != nil || !alive {
			t.Fatalf("heartbeat: alive=%v err=%v", alive, err)
		}
		oc := pool.RunOne(runner.Job{Tag: g.Tag, Config: decodeConfig(t, g.Config)})
		if oc.Err != nil {
			t.Fatal(oc.Err)
		}
		if err := c.Complete(g.LeaseID, oc.Result); err != nil {
			t.Fatal(err)
		}
		// A duplicate completion over HTTP is 410 (lease consumed), which
		// the exactly-once design treats as harmless.
		if err := c.Complete(g.LeaseID, oc.Result); err == nil {
			t.Fatal("duplicate completion over a consumed lease succeeded")
		}
	}
	st, err := c.Status(id)
	if err != nil || st.State != StateDone || st.Completed != e11Jobs {
		t.Fatalf("status %+v err %v", st, err)
	}
}

func decodeConfig(t *testing.T, raw json.RawMessage) (cfg cluster.Config) {
	t.Helper()
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestRemoteWorkerEndToEnd: an ncapd -worker process loop (RunWorker)
// against a server with no local workers finishes a sweep with the same
// bytes as local execution.
func TestRemoteWorkerEndToEnd(t *testing.T) {
	golden := runUninterrupted(t, tinyE11())
	_, c := startServer(t, func(o *Options) {
		o.Workers = 0
		o.LeaseTTL = 5 * time.Second
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorker(ctx, c, WorkerOptions{Name: "rw-1", Poll: 2 * time.Millisecond, Logf: t.Logf})
	}()

	id, err := c.Submit(tinyE11())
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.WaitDone(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Completed != e11Jobs {
		t.Fatalf("status %+v", st)
	}
	blob, err := c.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, golden) {
		t.Fatal("remote-worker report differs from local execution")
	}
	cancel()
	if err := <-workerDone; err != nil {
		t.Fatalf("worker: %v", err)
	}
}
