//go:build race

package transport_test

// raceEnabled reports a build under the race detector, whose sync.Pool
// drops a share of what is put back, so pooled waits allocate.
const raceEnabled = true
