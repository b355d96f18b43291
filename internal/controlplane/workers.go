package controlplane

import (
	"sync"
	"sync/atomic"
)

// maxIdleWorkers bounds the request goroutines a service keeps parked
// between requests. A request's signalling call chain grows its
// goroutine's stack to tens of kilobytes; a parked worker keeps that
// stack, so the next request starts on it instead of regrowing a fresh
// one. The bound only caps the parked stacks a burst leaves behind; it
// is sized from the busy peak of the control-plane benchmarks (two
// closed-loop clients): 3 workers at the coordinator and 1 per agent on
// both the in-memory and the TCP transport. Four keeps that peak parked
// with one to spare, so past warm-up those workloads start no goroutine,
// and any bound of three or more runs them the same.
const maxIdleWorkers = 4

// workers runs request work on reused goroutines: a job goes to a parked
// worker if one waits, else to a new one. Every worker counts in wg and
// leaves when stop closes.
type workers struct {
	// jobs is unbuffered: a send succeeds only into a parked worker.
	jobs chan func()
	// idle counts the parked workers.
	idle atomic.Int32
	wg   *sync.WaitGroup
	stop <-chan struct{}
}

func newWorkers(wg *sync.WaitGroup, stop <-chan struct{}) *workers {
	return &workers{jobs: make(chan func()), wg: wg, stop: stop}
}

// run starts job on a parked worker, or on a new one when none waits.
// Callers must not call it once stop is closed and wg waited on.
func (w *workers) run(job func()) {
	select {
	case w.jobs <- job:
		return
	default:
	}
	w.wg.Add(1)
	go w.work(job)
}

// work runs job, then parks for the next one unless maxIdleWorkers are
// parked already, and leaves when stop closes.
func (w *workers) work(job func()) {
	defer w.wg.Done()
	for {
		job()
		if w.idle.Add(1) > maxIdleWorkers {
			w.idle.Add(-1)
			return
		}
		select {
		case job = <-w.jobs:
			w.idle.Add(-1)
		case <-w.stop:
			return
		}
	}
}
