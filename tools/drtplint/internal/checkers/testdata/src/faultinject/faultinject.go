// Package faultinject is a mixed fixture for the determinism analyzer:
// the chaos layer sits inside the deterministic domain, so it must draw
// its fault decisions from seeded streams and an injected clock. The
// compliant patterns mirror the real package (clock func fields, sorted
// flush of the held-message map); the violations are the shortcuts a
// naive chaos layer would reach for.
package faultinject

import (
	"math/rand"
	"sort"
	"time"
)

// Injector mirrors the real chaos layer's shape: an injected clock and an
// explicit seeded stream per link pair.
type Injector struct {
	clock func() float64
	rng   *rand.Rand
	held  map[string][]int
}

// now reads the injected clock: allowed, no wall-clock call.
func (in *Injector) now() float64 {
	return in.clock()
}

// WallNow reads real time to stamp a fault window.
func WallNow() float64 {
	return float64(time.Now().UnixNano()) // want "wall-clock read time.Now"
}

// GlobalDrop decides a drop from the shared global source.
func GlobalDrop(p float64) bool {
	return rand.Float64() < p // want "global math/rand call rand.Float64"
}

// SeededDrop decides a drop from an explicit per-injector stream: allowed.
func (in *Injector) SeededDrop(p float64) bool {
	return in.rng.Float64() < p
}

// Flush drains held messages in sorted pair order: the sort launders the
// map order, so this is allowed.
func (in *Injector) Flush() []int {
	var pairs []string
	for pair := range in.held {
		pairs = append(pairs, pair)
	}
	sort.Strings(pairs)
	var out []int
	for _, pair := range pairs {
		out = append(out, in.held[pair]...)
	}
	return out
}

// LeakyFlush drains held messages in raw map order onto a channel.
func (in *Injector) LeakyFlush(ch chan int) {
	for _, msgs := range in.held { // want "map iteration order reaches a channel send"
		for _, m := range msgs {
			ch <- m
		}
	}
}

// Delay schedules a deferred delivery on the wall clock instead of the
// transport's.
func Delay(d time.Duration, fn func()) *time.Timer {
	return time.AfterFunc(d, fn) // want "wall-clock timer time.AfterFunc"
}
