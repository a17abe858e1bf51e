package netsim

import (
	"fmt"
	"slices"
	"testing"

	"ncap/internal/sim"
)

// eagerLink is the reference egress queue: Link's buffer accounting as it
// was when every committed frame scheduled its own dequeue event at the
// end of its serialization, and a delivery event after the propagation
// delay.
type eagerLink struct {
	eng          *sim.Engine
	cfg          LinkConfig
	busyTil      sim.Time
	queued, peak int
	deq          []int
	fires        int64
}

func eagerDequeue(a0, _ any) {
	r := a0.(*eagerLink)
	r.queued -= r.deq[0]
	r.deq = r.deq[1:]
	r.fires++
}

func releaseDelivered(a0, _ any) { a0.(*Packet).Release() }

func (r *eagerLink) Send(p *Packet) bool {
	if now := r.eng.Now(); r.busyTil < now {
		r.busyTil = now
	}
	ws := p.WireSize()
	if r.queued+ws > r.cfg.QueueBytes && r.queued > 0 {
		p.Release()
		return false
	}
	r.queued += ws
	r.peak = max(r.peak, r.queued)
	r.busyTil += sim.Duration(int64(ws) * 8 * int64(sim.Second) / r.cfg.BandwidthBps)
	r.deq = append(r.deq, ws)
	r.eng.At(r.busyTil, eagerDequeue, r, nil)
	r.eng.At(r.busyTil+r.cfg.Latency, releaseDelivered, p, nil)
	return true
}

func (r *eagerLink) QueuedBytes() int     { return r.queued }
func (r *eagerLink) PeakQueuedBytes() int { return r.peak }
func (r *eagerLink) departures() int64    { return r.fires }
func (r *eagerLink) busyUntil() sim.Time  { return r.busyTil }

// lazyLink adapts the real Link to the differential driver.
type lazyLink struct{ *Link }

func (l lazyLink) departures() int64   { return l.Departed() }
func (l lazyLink) busyUntil() sim.Time { return l.busyTil }

type egressQueue interface {
	Send(p *Packet) bool
	QueuedBytes() int
	PeakQueuedBytes() int
	departures() int64
	busyUntil() sim.Time
}

type releaser struct{}

func (releaser) Receive(p *Packet) { p.Release() }

// driveEgress runs one fuzz program against q on eng and returns what it
// observed: every drop decision, and the queue depth and departure count
// at every read, each stamped with the simulated time. A program is a
// sequence of 3-byte ops (action, gap, size); each op acts, then
// schedules the next op gap*13 ns later. Actions:
//
//	0  send a frame
//	1  read
//	2  schedule a read at the departure instant a frame sent now gets,
//	   then send it (the read orders before that departure)
//	3  the same with a send at the departure instant
//	4  send, then schedule a send and a read at its departure instant
//	   (both order after the departure)
//	5  stop the engine after this op, then run exactly to the departure
//	   instant of the last committed frame
//
// The driver reads after every Run, which advances in chunk-ns steps
// past the end of the program.
func driveEgress(eng *sim.Engine, q egressQueue, bw int64, prog []byte, chunk sim.Duration) []egressObs {
	var obs []egressObs
	read := func(what string) {
		obs = append(obs, egressObs{what, eng.Now(), int64(q.QueuedBytes()), q.departures()})
	}
	send := func(size int) {
		p := AllocPacket()
		p.PayloadLen = size
		ok := int64(0)
		if q.Send(p) {
			ok = 1
		}
		obs = append(obs, egressObs{"send(size, ok)", eng.Now(), int64(size), ok})
	}
	departure := func(size int) sim.Time {
		return max(q.busyUntil(), eng.Now()) + sim.Duration(int64(HeaderBytes+size)*8*int64(sim.Second)/bw)
	}
	// probes counts scheduled reads and sends not yet fired.
	probes := 0
	readEv := func(_, _ any) { probes--; read("read") }
	sendEv := func(a0, _ any) { probes--; send(a0.(int)) }

	done, stopped, stopAt := false, false, sim.Time(0)
	var step func(a0, _ any)
	step = func(a0, _ any) {
		i := a0.(int)
		if i+3 > len(prog) {
			done = true
			return
		}
		act, gap, size := prog[i]%6, sim.Duration(prog[i+1])*13, int(prog[i+2])*6
		switch act {
		case 0:
			send(size)
		case 1:
			read("read")
		case 2:
			probes++
			eng.At(departure(size), readEv, nil, nil)
			send(size)
		case 3:
			probes++
			eng.At(departure(size), sendEv, size, nil)
			send(size)
		case 4:
			send(size)
			probes += 2
			eng.At(q.busyUntil(), sendEv, size, nil)
			eng.At(q.busyUntil(), readEv, nil, nil)
		case 5:
			eng.Stop()
			stopped, stopAt = true, q.busyUntil()
		}
		eng.Schedule(gap, step, i+3, nil)
	}
	eng.Schedule(0, step, 0, nil)

	// Run until the program and its probes are done and the queue is
	// empty; the horizon is a backstop past the longest program (300 ops
	// 3.3 µs apart, then a 64 KiB queue draining at 1 Gb/s).
	const horizon = 2 * sim.Millisecond
	for until := chunk; ; {
		limit := until
		if stopAt > eng.Now() && stopAt < until {
			limit = stopAt
		}
		stopped, stopAt = false, 0
		eng.Run(limit)
		read("run")
		if stopped || limit < until {
			continue
		}
		if done && probes == 0 && q.QueuedBytes() == 0 || until >= horizon {
			break
		}
		until += chunk
	}
	return append(obs, egressObs{"peak", eng.Now(), int64(q.PeakQueuedBytes()), 0})
}

// egressObs is one observation of driveEgress: a read's queued bytes and
// departure count, a send's size and verdict, or the final peak.
type egressObs struct {
	what string
	t    sim.Time
	a, b int64
}

// FuzzLinkMatchesEagerDequeue: Link frees egress-buffer bytes lazily, at
// the engine keys its dequeue events would have had. Against a reference
// that still schedules one dequeue event per frame, on a twin engine, it
// must make the same drop decisions, read the same queue depth at every
// read (inside callbacks, between Runs and after a Stop, including reads
// and sends at the exact instant a frame departs, in both fire orders),
// report the same peak, and count one departure per reference dequeue.
func FuzzLinkMatchesEagerDequeue(f *testing.F) {
	// Tie cases: a probe at a departure instant scheduled before the frame
	// (orders first) and after it (orders last), under a one-frame queue
	// so the tie decides the drop.
	f.Add(uint16(1500), uint8(1), uint8(0), uint8(3), []byte{3, 0, 200, 0, 0, 200, 4, 0, 200, 2, 0, 200})
	f.Add(uint16(64), uint8(2), uint8(5), uint8(1), []byte{0, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 1, 9, 0})
	f.Add(uint16(9000), uint8(0), uint8(100), uint8(7), []byte{0, 1, 250, 0, 1, 250, 5, 0, 0, 1, 200, 0, 2, 0, 100})
	f.Add(uint16(0), uint8(3), uint8(1), uint8(0), []byte{4, 0, 10, 4, 0, 10, 3, 0, 10})
	f.Fuzz(func(t *testing.T, capBytes uint16, bwSel, latSel, chunkSel uint8, prog []byte) {
		if len(prog) > 900 {
			prog = prog[:900]
		}
		cfg := LinkConfig{
			BandwidthBps: []int64{1e9, 10e9, 25e9, 100e9}[bwSel%4],
			Latency:      sim.Duration(latSel) * 10,
			QueueBytes:   int(capBytes),
		}
		chunk := sim.Duration(chunkSel)*1009 + 997
		engRef, engLazy := sim.NewEngine(), sim.NewEngine()
		ref := &eagerLink{eng: engRef, cfg: cfg}
		lazy := lazyLink{NewLink(engLazy, cfg, releaser{})}
		want := driveEgress(engRef, ref, cfg.BandwidthBps, prog, chunk)
		got := driveEgress(engLazy, lazy, cfg.BandwidthBps, prog, chunk)
		if i := firstDiff(want, got); i >= 0 {
			t.Fatalf("cfg %+v chunk %v: observation %d differs\nlazy:  %s\neager: %s",
				cfg, chunk, i, at(got, i), at(want, i))
		}
		if lazy.QueuedBytes() != 0 || lazy.Departed() != ref.fires {
			t.Fatalf("after drain: queued %d, departed %d, eager dequeues %d",
				lazy.QueuedBytes(), lazy.Departed(), ref.fires)
		}
	})
}

func firstDiff(a, b []egressObs) int {
	if slices.Equal(a, b) {
		return -1
	}
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func at(s []egressObs, i int) string {
	if i < len(s) {
		return fmt.Sprintf("%+v", s[i])
	}
	return "<end>"
}
