//go:build race

package simrun

// The race detector allocates on calls that allocate nothing without
// it, so the allocation pins do not hold under it.
func init() { raceEnabled = true }
