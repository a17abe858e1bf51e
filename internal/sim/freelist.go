package sim

// FreeList is a component-local stack of recycled records — the plain,
// single-engine counterpart of the engine's own event free list that the
// per-request paths draw their state from (a sync.Pool would add
// synchronization and drop its contents at every GC). The zero value is
// an empty list. The owner resets a record before putting it back.
type FreeList[T any] struct{ items []*T }

// Get returns a recycled record, or a new zero one when none is free.
func (f *FreeList[T]) Get() *T {
	n := len(f.items)
	if n == 0 {
		return new(T)
	}
	x := f.items[n-1]
	f.items = f.items[:n-1]
	return x
}

// Put recycles x. The caller must hold no other reference to it.
func (f *FreeList[T]) Put(x *T) { f.items = append(f.items, x) }
