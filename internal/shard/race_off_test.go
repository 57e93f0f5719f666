//go:build !race

package shard

// raceEnabled reports whether the race detector is active; alloc-count
// assertions are skipped under it (instrumentation and sync.Pool behave
// differently there by design).
const raceEnabled = false
