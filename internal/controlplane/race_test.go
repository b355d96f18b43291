//go:build race

package controlplane_test

// raceEnabled reports a build under the race detector, which multiplies
// what a test holds and how long its cycles take.
const raceEnabled = true
