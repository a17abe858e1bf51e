// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated components schedule callbacks on a shared Engine. Time is
// measured in integer nanoseconds (Time). Events scheduled for the same
// instant fire in scheduling order, which — together with seeded random
// streams (see rng.go) — makes every simulation bit-reproducible.
//
// The event queue is a hybrid of a hierarchical timer wheel (Varghese &
// Lauck, as in kernel timers and Netty) and two exact (when, seq) min-heaps.
// Events due within nearSpan of the wheel cursor live in the "near" heap,
// which alone decides fire order; farther events sit in O(1) wheel buckets
// and cascade toward the near heap as the cursor advances; events beyond the
// wheel horizon (or behind the cursor) wait in an overflow heap. Fired and
// canceled events return to a free list, so steady-state scheduling does not
// allocate.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a simulated instant, in nanoseconds since the start of the run.
type Time int64

// Duration is a span of simulated time, in nanoseconds.
type Duration = Time

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String formats t with a unit fitting its magnitude: "850ns", "12.3µs",
// "3.456ms", or "1.234567s".
func (t Time) String() string {
	abs := t
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case abs < Millisecond:
		return fmt.Sprintf("%.1fµs", t.Micros())
	case abs < Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	}
	return fmt.Sprintf("%d.%06ds", int64(t)/int64(Second), (int64(abs)%int64(Second))/1000)
}

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Timer-wheel geometry. Events within nearSpan (2^nearBits ns ≈ 4 µs) of
// the wheel cursor go straight to the exact near heap. Above that, five
// levels of 64 slots each cover spans of 2^18, 2^24, 2^30, 2^36 and 2^42 ns
// (the last ≈ 73 simulated minutes); anything farther — or behind the
// cursor — lands in the overflow heap.
const (
	nearBits    = 12
	levelBits   = 6
	wheelSlots  = 1 << levelBits
	wheelLevels = 5
	maxTime     = Time(math.MaxInt64)
)

// Where an event currently lives. Only inFree events may be handed out by
// the pool, and a Handle treats inFree as "not scheduled".
const (
	inFree uint8 = iota
	inNear
	inWheel
	inOverflow
)

// event is a scheduled callback, owned by the engine's free-list pool.
// Once it fires or is canceled the storage is recycled for an unrelated
// callback, so the scheduling methods hand out a generation-checked Handle
// rather than the pointer.
type event struct {
	order
	gen uint64 // incremented on recycle; validates Handles

	// Container linkage: heap index for inNear/inOverflow, intrusive
	// doubly-linked bucket list plus (level, slot) for inWheel. The free
	// list reuses next.
	index       int
	next, prev  *event
	level, slot uint8
	where       uint8

	fn     func(a0, a1 any)
	a0, a1 any

	eng *Engine
}

// order is an event's position in the fire order: events fire by
// ascending (when, sat, aux, seq).
type order struct {
	when Time
	// sat is the simulated time the event was scheduled. For locally
	// scheduled events it equals the engine's now at the Schedule/At call;
	// cross-engine injections (InjectAt) carry the sender engine's
	// schedule time instead. Because seq increases monotonically and now
	// never decreases, ordering by (when, sat, aux, seq) is identical to
	// ordering by (when, seq) for purely local events — sat and aux only
	// matter when events from different engines meet in one queue.
	sat Time
	// aux is a tie-break key for injected events: 0 for every local
	// event, and a run-invariant identity (derived from the injecting
	// link and frame index, see internal/cluster) for injections — so the
	// fire order at equal (when, sat) does not depend on how a sharded
	// run was partitioned.
	aux uint64
	seq uint64 // tie-breaker: preserves scheduling order at equal times
}

// Handle is a safe, value-type reference to a scheduled event. Because
// the engine pools events, it detects recycling: once the event fires or
// is canceled, the handle reports not-pending forever, even after the
// pooled storage is reused for an unrelated event. The zero Handle is
// valid and not pending.
type Handle struct {
	ev  *event
	gen uint64
}

// live reports whether the handle still refers to its original scheduling.
func (h Handle) live() bool { return h.ev != nil && h.ev.gen == h.gen && h.ev.where != inFree }

// Pending reports whether the referenced event is still scheduled.
func (h Handle) Pending() bool { return h.live() }

// When returns the fire time of a still-pending event, or -1.
func (h Handle) When() Time {
	if !h.live() {
		return -1
	}
	return h.ev.when
}

// Cancel prevents the referenced event from firing, unlinking it from the
// queue immediately, and reports whether it was still pending. Canceling
// a fired or already-canceled event is a no-op.
func (h Handle) Cancel() bool {
	if !h.live() {
		return false
	}
	ev, eng := h.ev, h.ev.eng
	switch ev.where {
	case inNear:
		eng.near.remove(ev.index)
	case inOverflow:
		eng.overflow.remove(ev.index)
	case inWheel:
		eng.unlinkBucket(ev)
	}
	eng.pending--
	eng.recycle(ev)
	return true
}

// bucket is one timer-wheel slot: an intrusive doubly-linked event list.
// Order within a bucket is irrelevant; the near heap restores the exact
// (when, seq) order before anything fires.
type bucket struct {
	head, tail *event
}

// wheelLevel is one ring of the hierarchical wheel. occupied has bit s set
// iff slots[s] is non-empty, so finding the earliest bucket is one
// TrailingZeros64.
type wheelLevel struct {
	occupied uint64
	slots    [wheelSlots]bucket
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	fired   uint64
	pending int
	running bool
	stopped bool

	// mark bounds what has fired, for Due: of the events scheduled
	// before markSeq was taken, every one ordered before mark has fired
	// and none after it has; none scheduled since has fired. Inside a
	// callback mark is the running event's order; after a Run that
	// reached its limit it is (until, until, 0, seq).
	mark    order
	markSeq uint64

	// cur is the wheel cursor: a lower bound on every event reachable via
	// the near heap or wheel (the overflow heap also takes events behind
	// it). It can run ahead of now when a bounded Run stops before the
	// next event.
	cur      uint64
	near     eventHeap
	overflow eventHeap
	levels   [wheelLevels]wheelLevel

	free *event // free-list of recycled events, linked through next

	// Livelock watchdog (see SetLivelockWatchdog): when wdLimit > 0, Run
	// counts consecutive events firing at the same instant and trips once
	// the count reaches the limit. Off, it costs one predictable integer
	// test per fired event.
	wdLimit int
	wdSame  int
	wdLast  Time
	wdTrip  func(count int, at Time)
}

// NewEngine returns an empty engine at time 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (a progress metric).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still scheduled. Canceled events
// are unlinked eagerly and never counted.
func (e *Engine) Pending() int { return e.pending }

// alloc hands out a pooled (or fresh) event for time t (clamped to now)
// with schedule time sat and sequence number seq.
func (e *Engine) alloc(t, sat Time, seq uint64) *event {
	if t < e.now {
		t = e.now
	}
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
	} else {
		ev = &event{eng: e}
	}
	ev.order = order{when: t, sat: sat, seq: seq}
	return ev
}

// recycle returns a no-longer-queued event to the free list, invalidating
// outstanding Handles and dropping callback references.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.where = inFree
	ev.fn, ev.a0, ev.a1 = nil, nil, nil
	ev.prev = nil
	ev.next = e.free
	e.free = ev
}

// insert places an allocated event into the near heap, a wheel bucket, or
// the overflow heap, according to its distance from the wheel cursor.
// Callers account for pending.
func (e *Engine) insert(ev *event) {
	w := uint64(ev.when)
	if w < e.cur {
		// Behind the cursor: possible when a bounded Run cascaded past
		// `until` and a later call schedules between now and cur. The
		// overflow heap accepts any time.
		ev.where = inOverflow
		e.overflow.push(ev)
		return
	}
	diff := w ^ e.cur
	if diff>>nearBits == 0 {
		ev.where = inNear
		e.near.push(ev)
		return
	}
	lvl := (bits.Len64(diff) - nearBits - 1) / levelBits
	if lvl >= wheelLevels {
		ev.where = inOverflow
		e.overflow.push(ev)
		return
	}
	slot := (w >> (nearBits + uint(lvl)*levelBits)) & (wheelSlots - 1)
	ev.where = inWheel
	ev.level = uint8(lvl)
	ev.slot = uint8(slot)
	b := &e.levels[lvl].slots[slot]
	ev.prev = b.tail
	ev.next = nil
	if b.tail != nil {
		b.tail.next = ev
	} else {
		b.head = ev
	}
	b.tail = ev
	e.levels[lvl].occupied |= 1 << slot
}

// unlinkBucket removes an inWheel event from its bucket list.
func (e *Engine) unlinkBucket(ev *event) {
	b := &e.levels[ev.level].slots[ev.slot]
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		b.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		b.tail = ev.prev
	}
	if b.head == nil {
		e.levels[ev.level].occupied &^= 1 << ev.slot
	}
	ev.next = nil
	ev.prev = nil
}

// cascade drains one wheel bucket and reinserts its events relative to the
// advanced cursor. Every event moves to a lower level or the near heap,
// because the cursor now shares its bucket's granule.
func (e *Engine) cascade(lvl, slot int) {
	b := &e.levels[lvl].slots[slot]
	ev := b.head
	b.head, b.tail = nil, nil
	e.levels[lvl].occupied &^= 1 << uint(slot)
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		e.insert(ev)
		ev = next
	}
}

// popMin removes and returns the earliest event with when ≤ limit, or nil.
// It cascades wheel buckets as needed; the near heap's exact (when, seq)
// comparator is the only thing that ever decides order between events.
func (e *Engine) popMin(limit Time) *event {
	for {
		best := e.near.min()
		if o := e.overflow.min(); o != nil && (best == nil || o.less(best)) {
			best = o
		}

		// Earliest occupied wheel granule, if any.
		gStart := uint64(math.MaxUint64)
		gLvl, gSlot := -1, 0
		for lvl := 0; lvl < wheelLevels; lvl++ {
			occ := e.levels[lvl].occupied
			if occ == 0 {
				continue
			}
			shift := uint(nearBits + lvl*levelBits)
			tz := bits.TrailingZeros64(occ)
			start := ((e.cur>>shift)&^(wheelSlots-1) | uint64(tz)) << shift
			if start < gStart {
				gStart, gLvl, gSlot = start, lvl, tz
			}
		}

		if gLvl >= 0 && (best == nil || gStart <= uint64(best.when)) {
			// The earliest wheel bucket may hold the true minimum; its
			// granule start is ≤ every event inside it, so advancing the
			// cursor there is safe. But if even the granule start is past
			// the limit, nothing eligible remains — return without
			// disturbing the cursor.
			if Time(gStart) > limit && (best == nil || best.when > limit) {
				return nil
			}
			// Raise-only: the cursor never moves backward, which keeps it
			// in the same wheel page as every occupied bucket (the
			// invariant the granule-start computation above relies on).
			if gStart > e.cur {
				e.cur = gStart
			}
			e.cascade(gLvl, gSlot)
			continue
		}
		if best == nil || best.when > limit {
			return nil
		}
		if best.where == inNear {
			e.near.remove(best.index)
		} else {
			e.overflow.remove(best.index)
		}
		if c := uint64(best.when); c > e.cur {
			e.cur = c
		}
		e.pending--
		return best
	}
}

// fire recycles ev and runs its callback. Recycling first keeps the pool
// hot when the callback immediately reschedules; Handles cannot observe
// the reuse thanks to the generation counter.
func (e *Engine) fire(ev *event) {
	fn, a0, a1 := ev.fn, ev.a0, ev.a1
	e.mark, e.markSeq = ev.order, e.seq
	e.recycle(ev)
	e.fired++
	fn(a0, a1)
}

// Schedule runs fn(a0, a1) after delay. A negative delay is treated as
// zero (fires at the current time, after already-queued events for that
// time). fn is typically a package-level trampoline and a0 a pointer, so
// scheduling does not allocate in steady state; a closure goes through
// Call.
func (e *Engine) Schedule(delay Duration, fn func(a0, a1 any), a0, a1 any) Handle {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn, a0, a1)
}

// At runs fn(a0, a1) at the absolute time t. If t is in the past it fires
// at the current time.
func (e *Engine) At(t Time, fn func(a0, a1 any), a0, a1 any) Handle {
	if fn == nil {
		panic("sim: At called with nil fn")
	}
	ev := e.alloc(t, e.now, e.seq)
	e.seq++
	ev.fn, ev.a0, ev.a1 = fn, a0, a1
	e.insert(ev)
	e.pending++
	return Handle{ev: ev, gen: ev.gen}
}

// Key is a reserved place in the fire order: the (schedule time,
// sequence number) stamp an At call would have received at the moment
// of the reservation. Scheduling a callback with AtKey, or testing a
// virtual event with Due, therefore orders exactly as that At call would
// have — and every other event keeps the stamp it had, because the
// reservation consumed the same sequence numbers.
type Key struct {
	sat Time
	seq uint64
}

// Nth returns the i-th key of a block that Reserve(n) returned as k
// (k.Nth(0) == k).
func (k Key) Nth(i int) Key { return Key{sat: k.sat, seq: k.seq + uint64(i)} }

// Reserve takes the next n sequence numbers at the current time and
// returns the first; Nth addresses the rest. The keys are exactly what
// n At calls made here would have stamped.
func (e *Engine) Reserve(n int) Key {
	k := Key{sat: e.now, seq: e.seq}
	e.seq += uint64(n)
	return k
}

// AtKey runs fn(a0, a1) at the absolute time t in the place of the fire
// order that key k holds. t must not be before the reservation, and the
// event must not already be due: either would need it to have fired
// already, so both panic rather than reorder.
func (e *Engine) AtKey(t Time, k Key, fn func(a0, a1 any), a0, a1 any) Handle {
	if fn == nil {
		panic("sim: AtKey called with nil fn")
	}
	if t < k.sat || e.Due(t, k) {
		panic(fmt.Sprintf("sim: AtKey at %v for a key reserved at %v is already due (now %v)", t, k.sat, e.now))
	}
	ev := e.alloc(t, k.sat, k.seq)
	ev.fn, ev.a0, ev.a1 = fn, a0, a1
	e.insert(ev)
	e.pending++
	return Handle{ev: ev, gen: ev.gen}
}

// Due reports whether an event at t holding key k would already have
// fired. Inside a callback, that is whether k was reserved before the
// running event fired and orders before it. After a Run that reached its
// limit, it is whether t ≤ now and k was reserved before Run returned.
// After a Run ended by Stop, it is whether k was reserved before the
// last event fired and orders before it. A component that only needs to
// know when a time has passed — a link freeing its egress buffer as
// frames finish serializing — reserves a key instead of scheduling an
// event, and asks Due when it next looks.
func (e *Engine) Due(t Time, k Key) bool {
	if k.seq >= e.markSeq {
		return false // reserved since the last fire
	}
	m := &e.mark
	if t != m.when {
		return t < m.when
	}
	if k.sat != m.sat {
		return k.sat < m.sat
	}
	if m.aux != 0 {
		return true // reserved keys carry aux 0
	}
	return k.seq < m.seq
}

// ScheduleArg runs fn(arg) after delay: an adapter over Schedule for
// one-argument callbacks.
func (e *Engine) ScheduleArg(delay Duration, fn func(any), arg any) Handle {
	return e.Schedule(delay, callArg, fn, arg)
}

// callArg is ScheduleArg's trampoline: fn is the func(any), arg its argument.
func callArg(fn, arg any) { fn.(func(any))(arg) }

// Call is the one trampoline for cold callers that defer a closure, on
// the engine (Schedule(d, Call, fn, nil)) or anywhere else that takes a
// func(a0, a1 any) callback: fn is the func(). Storing a func value in an
// interface does not allocate, so only building the closure itself can.
func Call(fn, _ any) { fn.(func())() }

// Run executes events until the queue drains or the clock would pass until.
// It returns the number of events fired during this call. Events scheduled
// exactly at until are executed.
func (e *Engine) Run(until Time) uint64 {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	var fired uint64
	for !e.stopped {
		ev := e.popMin(until)
		if ev == nil {
			break
		}
		e.now = ev.when
		if e.wdLimit != 0 {
			e.watchdog(ev.when)
		}
		e.fire(ev)
		fired++
	}
	if !e.stopped {
		if e.now < until {
			e.now = until
		}
		if e.now == until {
			// Everything at or before until has fired, including every
			// key reserved so far; a key reserved from here on is not.
			e.mark, e.markSeq = order{when: until, sat: until, seq: e.seq}, e.seq
		}
	}
	e.stopped = false
	return fired
}

// Step executes the single next pending event, if any, and reports whether
// one was executed.
func (e *Engine) Step() bool {
	ev := e.popMin(maxTime)
	if ev == nil {
		return false
	}
	e.now = ev.when
	e.fire(ev)
	return true
}

// Stop makes the current Run return after the in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// NextEventBound returns a lower bound on the time of the next event to
// fire: the exact minimum of the near and overflow heaps, and for wheel
// buckets the start of the earliest occupied granule (which is ≤ every
// event inside it — computing the exact bucket minimum would defeat the
// wheel's O(1) insertion). The bound is never below the current time, and
// is maxTime when no events are pending. After Run(until) returns with
// events still pending, NextEventBound() > until: Run only stops early
// when popMin proves every remaining event is past the limit.
//
// The shard coordinator (internal/cluster) uses this to compute the
// conservative synchronization horizon without disturbing the queue.
func (e *Engine) NextEventBound() Time {
	bound := maxTime
	if ev := e.near.min(); ev != nil {
		bound = ev.when
	}
	if ev := e.overflow.min(); ev != nil && ev.when < bound {
		bound = ev.when
	}
	for lvl := 0; lvl < wheelLevels; lvl++ {
		occ := e.levels[lvl].occupied
		if occ == 0 {
			continue
		}
		shift := uint(nearBits + lvl*levelBits)
		tz := bits.TrailingZeros64(occ)
		start := ((e.cur>>shift)&^(wheelSlots-1) | uint64(tz)) << shift
		if Time(start) < bound {
			bound = Time(start)
		}
	}
	if bound != maxTime && bound < e.now {
		bound = e.now
	}
	return bound
}

// InjectAt schedules fn(a0, a1) at the absolute time when, carrying an
// explicit schedule time sat and tie-break key aux instead of the local
// (now, 0) that At/Schedule stamp. This is the cross-engine delivery
// primitive: a frame leaving one shard's engine arrives on another's with
// the sender's schedule time and a partition-invariant identity, so the
// receiving queue orders it exactly as the single-engine run would have
// (see event.sat/aux). when must not be in the past and sat must not be
// after when; both would break the conservative-sync contract, so they
// panic rather than clamp.
func (e *Engine) InjectAt(when, sat Time, aux uint64, fn func(a0, a1 any), a0, a1 any) {
	if fn == nil {
		panic("sim: InjectAt called with nil fn")
	}
	if when < e.now {
		panic(fmt.Sprintf("sim: InjectAt at %v before now %v", when, e.now))
	}
	if sat > when {
		panic(fmt.Sprintf("sim: InjectAt sat %v after when %v", sat, when))
	}
	ev := e.alloc(when, sat, e.seq)
	e.seq++
	ev.aux = aux
	ev.fn, ev.a0, ev.a1 = fn, a0, a1
	e.insert(ev)
	e.pending++
}

// eventHeap is a binary min-heap of events ordered by (when, seq), with
// index maintenance for O(log n) removal by position.
type eventHeap []*event

func (a *event) less(b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.sat != b.sat {
		return a.sat < b.sat
	}
	if a.aux != b.aux {
		return a.aux < b.aux
	}
	return a.seq < b.seq
}

// min returns the earliest event without removing it, or nil.
func (h eventHeap) min() *event {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}

func (h *eventHeap) push(ev *event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.siftUp(ev.index)
}

// remove deletes the event at heap position i.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	old[i].index = -1
	if i != n {
		old[i] = old[n]
		old[i].index = i
	}
	old[n] = nil
	*h = old[:n]
	if i != n {
		if !h.siftDown(i) {
			h.siftUp(i)
		}
	}
}

func (h eventHeap) siftUp(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = i
		i = parent
	}
	h[i] = ev
	ev.index = i
}

// siftDown reports whether the element moved (so remove can try siftUp).
func (h eventHeap) siftDown(i int) bool {
	ev := h[i]
	start := i
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].less(h[child]) {
			child = r
		}
		if !h[child].less(ev) {
			break
		}
		h[i] = h[child]
		h[i].index = i
		i = child
	}
	h[i] = ev
	ev.index = i
	return i > start
}
