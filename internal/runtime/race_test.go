//go:build race

package runtime

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// a random share of the buffers put back, so the borrowed hook vectors are
// reallocated there by design.
const raceEnabled = true
