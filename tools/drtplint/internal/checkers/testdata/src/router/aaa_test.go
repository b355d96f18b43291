package router_test

import "time"

// An external test package is out of the analyzer's scope.
func wait() { time.Sleep(time.Millisecond) }
