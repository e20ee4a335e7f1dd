//go:build race

package simrun

// The race detector drops a share of sync.Pool puts at random, so
// allocation bounds that count on pooled memory do not hold under it.
func init() { raceEnabled = true }
