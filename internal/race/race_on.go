//go:build race

// Package race reports whether the binary was built with the race
// detector, whose instrumentation allocates and makes sync.Pool drop
// items at random — so allocation-count tests skip under it.
package race

// Enabled is true in binaries built with -race.
const Enabled = true
