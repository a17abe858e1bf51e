package cluster

import (
	"cmp"
	"slices"

	"ncap/internal/sim"
	"ncap/internal/workload"
)

// resolveTraffic materializes the run's replayed schedule, if any: the
// config's explicit trace, or the scenario generated here from the run
// seed (a pure function of the config, preserving the runner's
// determinism contract). Called from New before clients are built.
func (c *Cluster) resolveTraffic() {
	spec := c.cfg.Traffic
	c.accounting = spec.Accounting()
	if !spec.Replay() {
		return
	}
	t := spec.Trace
	if t == nil {
		var err error
		t, err = spec.Scenario.Generate(workload.GenParams{
			LoadRPS:  c.cfg.LoadRPS,
			Clients:  c.cfg.ClientCount(),
			Horizon:  c.cfg.Warmup + c.cfg.Measure,
			Seed:     c.cfg.Seed,
			ReqBytes: c.cfg.Workload.RequestBytes,
			Pace:     c.cfg.Workload.RequestSpacing,
		})
		if err != nil {
			// Config.Validate vets scenario parameters and sizes; reaching
			// here is a construction bug, like any other New panic.
			panic(err)
		}
	}
	c.replayTrace = t
	c.replayHash = spec.TraceHash
	if c.replayHash == "" {
		c.replayHash = t.Hash()
	}
}

// installTraffic arms the replayed schedule or the live capture once the
// clients exist. Called from New after the client loop.
func (c *Cluster) installTraffic() {
	if c.replayTrace != nil {
		c.scheduleReplay()
	}
	if !c.cfg.Traffic.Recording() {
		return
	}
	if c.replayTrace != nil {
		// A replayed run's schedule IS its arrival record; re-capturing
		// live would interleave lagged sends out of schedule order.
		return
	}
	c.capture = workload.NewCapture(c.cfg.ClientCount(), 0)
	for i, cl := range c.Clients {
		cl.CoAccount = true
		cl.OnSend = c.capture.Hook(i)
	}
}

// replayItem is one trace record's place in the replayed schedule: its
// actual send time, the shard of its sending client and its index in
// Trace.Records.
type replayItem struct {
	at  sim.Time
	sh  int32
	rec int32 // < workload.MaxTraceRecords
}

// replayStream is one engine's share of the replayed schedule, in send
// order. Only its next item is ever pending: each fire arms the item
// after it with its key from the block reserved at New, so the stream
// fires exactly where one pre-scheduled event per record would have.
type replayStream struct {
	c     *Cluster
	eng   *sim.Engine
	key   sim.Key
	items []replayItem
	next  int
}

// replayFire sends the stream's next record and arms the one after it
// (a0 is the *replayStream).
func replayFire(a0, _ any) {
	s := a0.(*replayStream)
	r := &s.c.replayTrace.Records[s.items[s.next].rec]
	s.next++
	if s.next < len(s.items) {
		s.eng.AtKey(s.items[s.next].at, s.key.Nth(s.next), replayFire, s, nil)
	}
	s.c.Clients[r.Client].ReplaySend(r.T, r.Req, r.Resp, r.Class == workload.ClassBulk)
}

// scheduleReplay turns the trace into one chained send stream per
// engine. Coordinated omission: each record keeps its scheduled time
// (latency origin) while the actual send is pushed by the trace's
// per-client pacing floor; the slip lands in the client's LagMeter. The
// stable sort keeps same-instant sends in record order, so replaying a
// captured trace reproduces the original engine FIFO order exactly.
// Each engine reserves one key per record here, where scheduling them
// all would have stamped them, so every event of the run keeps its
// place in the fire order while only one send per engine is pending.
func (c *Cluster) scheduleReplay() {
	t := c.replayTrace
	next := make([]sim.Time, len(c.Clients))
	items := make([]replayItem, len(t.Records))
	for i := range t.Records {
		r := &t.Records[i]
		at := max(r.T, next[r.Client])
		next[r.Client] = at + t.MinGap
		// Each send fires on its own client's engine, which in a sharded
		// run is the client's shard; serially every client is on the
		// primary engine.
		items[i] = replayItem{at: at, sh: int32(c.shardOf(r.Client)), rec: int32(i)}
	}
	slices.SortStableFunc(items, func(a, b replayItem) int {
		return cmp.Or(cmp.Compare(a.sh, b.sh), cmp.Compare(a.at, b.at))
	})
	for len(items) > 0 {
		n := 1
		for n < len(items) && items[n].sh == items[0].sh {
			n++
		}
		s := &replayStream{c: c, eng: c.shardEng(int(items[0].sh)), items: items[:n:n]}
		s.key = s.eng.Reserve(n)
		s.eng.AtKey(s.items[0].at, s.key, replayFire, s, nil)
		items = items[n:]
	}
}

// RecordedTrace returns the run's captured arrival schedule: the live
// capture in burst mode, the replayed source schedule otherwise. Nil
// unless the config asked for recording.
func (c *Cluster) RecordedTrace() *workload.Trace {
	if !c.cfg.Traffic.Recording() {
		return nil
	}
	if c.replayTrace != nil {
		return c.replayTrace
	}
	return c.capture.Trace()
}
