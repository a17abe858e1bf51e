// Package cpu models the server processor: four out-of-order cores with
// chip-wide DVFS (P-states) and per-core sleep states (C-states), matching
// the paper's Table 1 configuration.
//
// Execution is modeled at task granularity: work items carry cycle budgets
// and their wall-clock duration scales with the chip frequency, which is
// what makes DVFS decisions matter. Hardware interrupts preempt softirqs,
// which preempt tasks — the priority structure the Linux network stack
// imposes on packet processing.
package cpu

import "fmt"

// Priority orders work classes on a core. Lower values preempt higher ones.
type Priority int

const (
	// PrioIRQ is hardware interrupt context: preempts everything.
	PrioIRQ Priority = iota
	// PrioSoftIRQ is softirq context (NET_RX/NET_TX processing).
	PrioSoftIRQ
	// PrioTask is ordinary schedulable work (application threads).
	PrioTask

	numPrios
)

func (p Priority) String() string {
	switch p {
	case PrioIRQ:
		return "irq"
	case PrioSoftIRQ:
		return "softirq"
	case PrioTask:
		return "task"
	}
	return fmt.Sprintf("prio?%d", int(p))
}

// Work is a unit of execution: a cycle budget plus a closure-free
// completion callback, OnDone(A0, A1), the same shape as an engine event
// — a package-level function and pointer arguments cost no heap
// allocation, where a closure usually would.
//
// A Work value is owned by whoever submitted it until it completes: it
// must not be submitted again while queued or running (Core.Submit
// panics), but OnDone may resubmit it. Per-request work should not be
// built by callers at all: Core.SubmitArg draws items from the core's
// own free list and recycles them once they complete.
type Work struct {
	// Name labels the work for debugging and tracing.
	Name string
	// Cycles is the remaining cycle budget. Non-positive budgets are
	// clamped to one cycle at submission.
	Cycles int64
	// Prio selects the execution class.
	Prio Priority
	// OnDone runs OnDone(A0, A1) in event context when the budget is
	// exhausted. It may submit new work. May be nil.
	OnDone func(a0, a1 any)
	A0, A1 any

	inFlight bool // queued or running on a core
	pooled   bool // drawn from a core's free list by SubmitArg
}
