// Package shard is residue. The daemon serves one *classminer.Library:
// in-memory partitions lost their trial (ROADMAP item 17) and were deleted.
// What is left are the two constructors the frozen benchmark (cmd/loadgen)
// still calls; each ignores its shard count and returns the one library.
// ROADMAP item 1(d) stops loadgen calling them, and then this package goes.
package shard

import "classminer"

// New returns an empty in-memory library. The analyzer and n are ignored
// (ROADMAP item 1(d)).
func New(_ *classminer.Analyzer, n int) (*classminer.Library, error) {
	return classminer.NewLibrary(nil), nil
}

// Recover is classminer.Recover; n is ignored (ROADMAP item 1(d)).
func Recover(dir string, n int, a *classminer.Analyzer, opts classminer.DurableOptions) (*classminer.Library, error) {
	return classminer.Recover(dir, a, opts)
}
