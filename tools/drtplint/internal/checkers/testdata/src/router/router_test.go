package router

import "time"

// A test waits on goroutines in wall time: allowed in a protocol package.
func waitFor(cond func() bool) time.Duration {
	start := time.Now()
	for !cond() {
		time.Sleep(time.Millisecond)
	}
	return time.Since(start)
}
