package runner

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ncap/internal/app"
	"ncap/internal/cluster"
)

// cacheEntries counts the result files in a cache directory.
func cacheEntries(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

// TestCheckpointRoundTrip: the cache is a sweep's checkpoint. A batch
// run with a cache dir leaves one entry per job, and a second pool over
// the same dir resumes the batch, replaying every job without
// re-executing.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jobs := tinyJobs()

	first := New(Options{Jobs: 2, CacheDir: dir})
	for i, o := range first.Run(jobs) {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
	}
	if n := cacheEntries(t, dir); n != len(jobs) {
		t.Fatalf("cache holds %d entries, want %d", n, len(jobs))
	}

	second := New(Options{Jobs: 2, CacheDir: dir})
	for i, o := range second.Run(jobs) {
		if o.Err != nil || !o.CacheHit || o.Attempts != 0 {
			t.Fatalf("job %d not replayed: err=%v hit=%v attempts=%d", i, o.Err, o.CacheHit, o.Attempts)
		}
	}
	if st := second.Stats(); st.Ran != 0 || st.CacheHits != int64(len(jobs)) {
		t.Fatalf("resumed stats = %+v, want 0 ran / %d hits", st, len(jobs))
	}
}

// TestResumeCompletesPartialBatch: resuming from a cache holding a prefix
// of the batch replays exactly that prefix and executes the rest — the
// interrupted-sweep recovery path, minus the interruption.
func TestResumeCompletesPartialBatch(t *testing.T) {
	dir := t.TempDir()
	jobs := tinyJobs()
	half := len(jobs) / 2

	New(Options{Jobs: 2, CacheDir: dir}).Run(jobs[:half])

	pool := New(Options{Jobs: 2, CacheDir: dir})
	out := pool.Run(jobs)
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if replayed := i < half; o.CacheHit != replayed {
			t.Fatalf("job %d: cache hit %v, want %v", i, o.CacheHit, replayed)
		}
	}
	if st := pool.Stats(); st.Ran != int64(len(jobs)-half) {
		t.Fatalf("ran = %d, want %d", st.Ran, len(jobs)-half)
	}
	// The continued cache now covers the whole batch.
	if n := cacheEntries(t, dir); n != len(jobs) {
		t.Fatalf("continued cache has %d entries, want %d", n, len(jobs))
	}
}

// TestResumedResultsMatchExecuted: a replayed Result is value-identical
// to the executed one — resume must not launder precision through JSON.
func TestResumedResultsMatchExecuted(t *testing.T) {
	dir := t.TempDir()
	jobs := tinyJobs()
	ran := New(Options{Jobs: 2, CacheDir: dir}).Run(jobs)
	replayed := New(Options{Jobs: 2, CacheDir: dir}).Run(jobs)
	for i := range jobs {
		if !replayed[i].CacheHit {
			t.Fatalf("job %d was not replayed", i)
		}
		a, _ := json.Marshal(ran[i].Result)
		b, _ := json.Marshal(replayed[i].Result)
		if string(a) != string(b) {
			t.Fatalf("job %d: replayed result differs:\n%s\n%s", i, a, b)
		}
	}
}

// TestResumeMissingFileDegradesGracefully: a missing cache entry (an
// interrupted sweep never wrote it, or it was deleted) means a fresh run
// that writes the entry again, and a cache dir that cannot be created
// means an uncached run with a note on Progress. Neither fails the job.
func TestResumeMissingFileDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	job := Job{Tag: "t", Config: tinyCfg(cluster.Perf, app.MemcachedProfile(), 35_000)}
	if o := New(Options{Jobs: 1, CacheDir: dir}).RunOne(job); o.Err != nil {
		t.Fatal(o.Err)
	}
	entry := filepath.Join(dir, job.Key()+".json")
	if err := os.Remove(entry); err != nil {
		t.Fatal(err)
	}
	if o := New(Options{Jobs: 1, CacheDir: dir}).RunOne(job); o.Err != nil || o.CacheHit {
		t.Fatalf("outcome = err %v hit %v, want a clean fresh run", o.Err, o.CacheHit)
	}
	if _, err := os.Stat(entry); err != nil {
		t.Fatalf("fresh run did not rewrite the entry: %v", err)
	}

	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var progress strings.Builder
	pool := New(Options{Jobs: 1, CacheDir: filepath.Join(file, "cache"), Progress: &progress})
	if o := pool.RunOne(job); o.Err != nil || o.CacheHit {
		t.Fatalf("unusable cache: err %v hit %v, want a clean fresh run", o.Err, o.CacheHit)
	}
	if !strings.Contains(progress.String(), "caching disabled") {
		t.Fatalf("no caching-disabled note on Progress: %q", progress.String())
	}
}

// TestCheckpointWriteSyncs: the cache write path fsyncs the entry and
// its directory — an atomic rename alone survives process death but not
// a machine crash, so the durability counter must advance once per
// executed job, and no temp file may be left behind.
func TestCheckpointWriteSyncs(t *testing.T) {
	dir := t.TempDir()
	jobs := tinyJobs()
	before := cacheSyncs.Load()
	for i, o := range New(Options{Jobs: 2, CacheDir: dir}).Run(jobs) {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
	}
	if got := cacheSyncs.Load() - before; got != int64(len(jobs)) {
		t.Fatalf("cacheSyncs advanced by %d over the batch, want %d", got, len(jobs))
	}
	tmps, err := filepath.Glob(filepath.Join(dir, ".*.tmp*"))
	if err != nil || len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v (err %v)", tmps, err)
	}
}

// TestStopBeforeRunInterruptsEverything: Stop is a standing order — a
// batch submitted after it dispatches nothing.
func TestStopBeforeRunInterruptsEverything(t *testing.T) {
	pool := New(Options{Jobs: 2})
	pool.Stop()
	if !pool.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
	for i, o := range pool.Run(tinyJobs()) {
		if !errors.Is(o.Err, ErrInterrupted) {
			t.Fatalf("job %d: err = %v, want ErrInterrupted", i, o.Err)
		}
	}
	if st := pool.Stats(); st.Ran != 0 {
		t.Fatalf("ran = %d after pre-run Stop", st.Ran)
	}
}

// stopAfterFirstWrite is a Progress writer that stops the pool the first
// time the runner reports progress — i.e. right after the first job
// completes (the progress reporter never throttles its first line).
type stopAfterFirstWrite struct{ pool *Pool }

func (w *stopAfterFirstWrite) Write(b []byte) (int, error) {
	w.pool.Stop()
	return len(b), nil
}

// TestStopMidRunDrainsGracefully: stopping after the first completion
// finishes nothing further — completed jobs keep their results, every
// remaining job carries ErrInterrupted, and the outcome slice still has
// one entry per submitted job.
func TestStopMidRunDrainsGracefully(t *testing.T) {
	pool := New(Options{Jobs: 1})
	pool.opts.Progress = &stopAfterFirstWrite{pool: pool}
	jobs := tinyJobs()
	out := pool.Run(jobs)
	if len(out) != len(jobs) {
		t.Fatalf("got %d outcomes for %d jobs", len(out), len(jobs))
	}
	if out[0].Err != nil || out[0].Result.Completed == 0 {
		t.Fatalf("first job should have completed: err=%v", out[0].Err)
	}
	for i := 1; i < len(out); i++ {
		if !errors.Is(out[i].Err, ErrInterrupted) {
			t.Fatalf("job %d: err = %v, want ErrInterrupted", i, out[i].Err)
		}
	}
	if !pool.Stopped() {
		t.Fatal("pool not marked stopped")
	}
}
