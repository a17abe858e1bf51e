package stats

import (
	"fmt"

	"ncap/internal/sim"
)

// StateMeter accrues time spent in each of a small set of integer-labeled
// states (C-states, P-states, busy/idle). Transitions are piecewise
// constant: the meter charges the interval since the last transition to the
// outgoing state.
type StateMeter struct {
	last    sim.Time
	state   int
	accrued map[int]sim.Duration
	entries map[int]int
}

// NewStateMeter returns a meter that is in initial state at time start.
func NewStateMeter(start sim.Time, initial int) *StateMeter {
	return &StateMeter{
		last:    start,
		state:   initial,
		accrued: map[int]sim.Duration{},
		entries: map[int]int{initial: 1},
	}
}

// Transition charges the elapsed interval to the current state and switches
// to next. Transitions must be reported in nondecreasing time order.
func (m *StateMeter) Transition(now sim.Time, next int) {
	if now < m.last {
		panic(fmt.Sprintf("stats: StateMeter time went backwards (%d < %d)", now, m.last))
	}
	m.accrued[m.state] += now - m.last
	m.last = now
	if next != m.state {
		m.entries[next]++
	}
	m.state = next
}

// State returns the current state label.
func (m *StateMeter) State() int { return m.state }

// Time returns the total time accrued in state, charging the open interval
// through now.
func (m *StateMeter) Time(now sim.Time, state int) sim.Duration {
	t := m.accrued[state]
	if state == m.state && now > m.last {
		t += now - m.last
	}
	return t
}

// Entries returns how many times state was entered.
func (m *StateMeter) Entries(state int) int { return m.entries[state] }

// Reset zeroes the accrued times (keeping the current state) — used at the
// warmup/measurement boundary.
func (m *StateMeter) Reset(now sim.Time) {
	m.accrued = map[int]sim.Duration{}
	m.entries = map[int]int{m.state: 1}
	m.last = now
}

// Counter is a plain monotonic event counter with a resettable epoch, for
// drops, interrupts, wakeups and similar tallies.
type Counter struct {
	total int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.total += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.total++ }

// Value returns the current tally.
func (c *Counter) Value() int64 { return c.total }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.total = 0 }
