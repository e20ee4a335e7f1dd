//go:build race

package server

// The race detector drops a share of sync.Pool puts at random, so
// allocation bounds that count on pooled buffers do not hold under it.
func init() { raceEnabled = true }
