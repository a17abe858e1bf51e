package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

// refEntry is one scheduled event in the reference model: a plain sorted
// list keyed by (when, schedule order), the specification the timer wheel
// must match exactly.
type refEntry struct {
	when Time
	ord  int
	id   int
}

// TestWheelMatchesReferenceModel is the wheel's correctness property:
// under random interleavings of scheduling (Schedule, At and the
// ScheduleArg adapter, delays spanning the near heap, every wheel level,
// and the overflow heap), key reservation and cancellation, events fire
// in exactly the (when, schedule-order) sequence a naive sorted list
// predicts. A reserved key holds its schedule-order place: AtKey events
// scheduled later fire there, and Due on a key never scheduled reports,
// inside every recorded callback, whether the reference orders it before
// the running event.
func TestWheelMatchesReferenceModel(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := NewRand(seed, "wheel-prop")
		e := NewEngine()

		type fired struct {
			id int
			at Time
		}
		var got []fired
		var ref []refEntry
		ord := 0

		// Cancelable events. Handles stay cancelable forever and must
		// report dead after firing, even once the pool has recycled the
		// event for other work.
		type live struct {
			id int
			h  Handle
		}
		var lives []live
		dead := map[int]bool{}

		// Reserved keys not yet scheduled: virtual events until AtKey
		// arms them.
		type reservation struct {
			r refEntry
			k Key
		}
		var reserved []reservation
		byID := map[int]refEntry{}
		dropRef := func(id int) {
			for j, r := range ref {
				if r.id == id {
					ref = append(ref[:j], ref[j+1:]...)
					return
				}
			}
		}
		var record func(a0, _ any)
		record = func(a0, _ any) {
			id := a0.(int)
			got = append(got, fired{id, e.Now()})
			dead[id] = true
			cur := byID[id]
			for _, v := range reserved {
				want := v.r.when < cur.when || v.r.when == cur.when && v.r.ord < cur.ord
				if e.Due(v.r.when, v.k) != want {
					t.Errorf("seed %d: inside event %d, Due(reserved %d) = %v, reference %v",
						seed, id, v.r.id, !want, want)
				}
			}
		}

		const ops = 300
		var step func()
		remaining := ops
		step = func() {
			if remaining == 0 {
				return
			}
			remaining--
			// Arm or retire reserved keys: one still ahead may be armed
			// with AtKey; one already due can never fire.
			kept := reserved[:0]
			for _, v := range reserved {
				switch {
				case e.Due(v.r.when, v.k):
					dropRef(v.r.id)
				case rng.Bool(0.5):
					lives = append(lives, live{v.r.id, e.AtKey(v.r.when, v.k, record, v.r.id, nil)})
				default:
					kept = append(kept, v)
				}
			}
			reserved = kept
			switch {
			case len(lives) > 0 && rng.Bool(0.25):
				// Cancel a random event (possibly one that already fired).
				i := rng.Intn(len(lives))
				v := lives[i]
				lives[i] = lives[len(lives)-1]
				lives = lives[:len(lives)-1]
				if dead[v.id] {
					if v.h.Cancel() {
						t.Errorf("seed %d: Cancel succeeded on fired handle %d", seed, v.id)
					}
					break
				}
				dropRef(v.id)
				if !v.h.Cancel() {
					t.Errorf("seed %d: Cancel failed for pending event %d", seed, v.id)
				}
			case rng.Bool(0.2):
				// Reserve a block of keys for events at random times,
				// armed (or not) on later steps.
				n := 1 + rng.Intn(3)
				k := e.Reserve(n)
				for i := 0; i < n; i++ {
					d := Duration(rng.Uint64() & ((1 << uint(rng.Intn(46))) - 1))
					r := refEntry{when: e.Now() + Time(d), ord: ord, id: ord}
					ref = append(ref, r)
					byID[r.id] = r
					reserved = append(reserved, reservation{r, k.Nth(i)})
					ord++
				}
			default:
				// Schedule with a delay spanning 0ns to ~2^45ns so the near
				// heap, every wheel level, and the overflow heap all see
				// traffic.
				d := Duration(rng.Uint64() & ((1 << uint(rng.Intn(46))) - 1))
				id := ord
				r := refEntry{when: e.Now() + Time(d), ord: ord, id: id}
				ref = append(ref, r)
				byID[id] = r
				ord++
				var h Handle
				switch rng.Intn(3) {
				case 0:
					h = e.Schedule(d, record, id, nil)
				case 1:
					h = e.At(e.Now()+d, record, id, nil)
				default:
					h = e.ScheduleArg(d, func(a0 any) { record(a0, nil) }, id)
				}
				lives = append(lives, live{id, h})
			}
			// Advance unevenly; zero keeps several ops at one instant.
			e.Schedule(Duration(rng.Uint64()&((1<<uint(rng.Intn(40)))-1)), Call, step, nil)
		}
		e.Schedule(0, Call, step, nil)
		e.Run(maxTime - 1)
		// Keys never armed stay virtual; after the run every one is due.
		for _, v := range reserved {
			if !e.Due(v.r.when, v.k) {
				t.Errorf("seed %d: reserved %d at %v not due after the run", seed, v.r.id, v.r.when)
			}
			dropRef(v.r.id)
		}

		sort.SliceStable(ref, func(i, j int) bool {
			if ref[i].when != ref[j].when {
				return ref[i].when < ref[j].when
			}
			return ref[i].ord < ref[j].ord
		})
		if len(got) != len(ref) {
			t.Errorf("seed %d: fired %d events, reference expects %d", seed, len(got), len(ref))
			return false
		}
		for i := range ref {
			if got[i].id != ref[i].id || got[i].at != ref[i].when {
				t.Errorf("seed %d: firing %d = (id %d, %v), reference (id %d, %v)",
					seed, i, got[i].id, got[i].at, ref[i].id, ref[i].when)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWheelFarFutureOrdering pins the overflow path: events beyond the
// wheel horizon migrate inward as the clock advances and still fire in
// exact schedule order at equal times.
func TestWheelFarFutureOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	far := Time(1) << 50 // far past the wheel horizon
	for i := 0; i < 32; i++ {
		i := i
		e.At(far, Call, func() { order = append(order, i) }, nil)
	}
	// Intermediate traffic drags the cursor across every level.
	for lvl := uint(0); lvl < 50; lvl += 3 {
		e.At(Time(1)<<lvl, Call, func() {}, nil)
	}
	e.Run(far)
	if len(order) != 32 {
		t.Fatalf("fired %d far-future events, want 32", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("far-future events fired out of order: %v", order)
		}
	}
}

// TestEnginePendingExact verifies Pending tracks live events through
// schedule, cancel, and fire.
func TestEnginePendingExact(t *testing.T) {
	e := NewEngine()
	var evs []Handle
	for i := 0; i < 10; i++ {
		evs = append(evs, e.Schedule(Duration(i)*Millisecond, Call, func() {}, nil))
	}
	if got := e.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	evs[3].Cancel()
	evs[7].Cancel()
	if got := e.Pending(); got != 8 {
		t.Fatalf("Pending after cancels = %d, want 8", got)
	}
	e.Run(4 * Millisecond)
	if got := e.Pending(); got != 4 {
		t.Fatalf("Pending after partial run = %d, want 4", got)
	}
	e.Run(Second)
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
}

// TestHandleSurvivesReuse verifies a Handle to a fired event stays dead
// even after the engine recycles the underlying Event for new work.
func TestHandleSurvivesReuse(t *testing.T) {
	e := NewEngine()
	h := e.Schedule(Millisecond, nop, nil, nil)
	e.Run(2 * Millisecond)
	if h.Pending() {
		t.Fatal("handle pending after its event fired")
	}
	// Recycle the pooled event into fresh events; the old handle must not
	// alias them.
	for i := 0; i < 8; i++ {
		e.Schedule(Duration(i+3)*Millisecond, nop, nil, nil)
	}
	if h.Pending() {
		t.Fatal("stale handle sees a recycled event as its own")
	}
	if h.Cancel() {
		t.Fatal("stale handle canceled a recycled event")
	}
	e.Run(Second)
}

func nop(_, _ any) {}
