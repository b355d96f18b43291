//go:build race

package router

// raceEnabled reports a build under the race detector, which multiplies
// what a test that builds thousands of routers holds.
const raceEnabled = true
