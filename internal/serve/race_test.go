//go:build race

package serve

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so exact allocation counts on pooled paths are
// compared only when it is off.
const raceEnabled = true
