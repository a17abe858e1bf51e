package app

import (
	"ncap/internal/sim"
	"ncap/internal/stats"
)

// Disk models the server's storage path as an FCFS service center with a
// fixed internal concurrency (command queueing across platters/array
// members). Requests beyond the concurrency limit queue; service times are
// exponential. Waiting requests consume no CPU — the property that makes
// the Apache profile's latency partially frequency-independent.
type Disk struct {
	eng         *sim.Engine
	rng         *sim.Rand
	mean        sim.Duration
	concurrency int
	inflight    int
	queue       []*diskAccess // FIFO backlog from qHead on
	qHead       int
	free        sim.FreeList[diskAccess]

	// Reads counts completed accesses; MaxQueue tracks the deepest
	// backlog observed.
	Reads    stats.Counter
	MaxQueue int
}

// diskAccess is one access's completion callback, done(a0, a1). The disk
// owns it from Read until completion, then recycles it.
type diskAccess struct {
	d      *Disk
	done   func(a0, a1 any)
	a0, a1 any
}

// NewDisk builds a disk with the given mean access time and concurrency.
func NewDisk(eng *sim.Engine, rng *sim.Rand, mean sim.Duration, concurrency int) *Disk {
	if concurrency <= 0 {
		panic("app: disk concurrency must be positive")
	}
	if mean <= 0 {
		panic("app: disk mean must be positive")
	}
	return &Disk{eng: eng, rng: rng, mean: mean, concurrency: concurrency}
}

// Read performs an access and calls done(a0, a1) on completion.
func (d *Disk) Read(done func(a0, a1 any), a0, a1 any) {
	acc := d.free.Get()
	acc.d, acc.done, acc.a0, acc.a1 = d, done, a0, a1
	if d.inflight < d.concurrency {
		d.begin(acc)
		return
	}
	d.queue = append(d.queue, acc)
	if n := d.Queued(); n > d.MaxQueue {
		d.MaxQueue = n
	}
}

// Inflight returns the number of accesses in service.
func (d *Disk) Inflight() int { return d.inflight }

// Queued returns the number of accesses waiting for a service slot.
func (d *Disk) Queued() int { return len(d.queue) - d.qHead }

func (d *Disk) begin(acc *diskAccess) {
	d.inflight++
	d.eng.Schedule(d.rng.Exp(d.mean), diskComplete, acc, nil)
}

// diskComplete finishes an access and starts the next queued one (arg is
// the *diskAccess).
func diskComplete(a0, _ any) {
	acc := a0.(*diskAccess)
	d := acc.d
	done, a0, a1 := acc.done, acc.a0, acc.a1
	*acc = diskAccess{}
	d.free.Put(acc)
	d.inflight--
	d.Reads.Inc()
	done(a0, a1)
	if d.Queued() > 0 {
		next := d.queue[d.qHead]
		d.queue[d.qHead] = nil
		d.qHead++
		if d.qHead > 64 && d.qHead*2 >= len(d.queue) {
			d.queue = append(d.queue[:0], d.queue[d.qHead:]...)
			d.qHead = 0
		}
		d.begin(next)
	}
}
