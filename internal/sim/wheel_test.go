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
// and the overflow heap) and cancellation, events fire in exactly the
// (when, schedule-order) sequence a naive sorted list predicts.
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

		const ops = 300
		var step func()
		remaining := ops
		step = func() {
			if remaining == 0 {
				return
			}
			remaining--
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
				for j, r := range ref {
					if r.id == v.id {
						ref = append(ref[:j], ref[j+1:]...)
						break
					}
				}
				if !v.h.Cancel() {
					t.Errorf("seed %d: Cancel failed for pending event %d", seed, v.id)
				}
			default:
				// Schedule with a delay spanning 0ns to ~2^45ns so the near
				// heap, every wheel level, and the overflow heap all see
				// traffic.
				d := Duration(rng.Uint64() & ((1 << uint(rng.Intn(46))) - 1))
				id := ord
				ref = append(ref, refEntry{when: e.Now() + Time(d), ord: ord, id: id})
				ord++
				record := func(a0, _ any) {
					got = append(got, fired{a0.(int), e.Now()})
					dead[a0.(int)] = true
				}
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
