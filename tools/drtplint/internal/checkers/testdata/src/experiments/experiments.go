// Package experiments is a failing fixture for the determinism analyzer:
// its path segment places it inside the deterministic simulation domain.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"telemetry"
)

// Stamp reads the wall clock — the canonical violation.
func Stamp() int64 {
	return time.Now().Unix() // want "wall-clock read time.Now"
}

// Elapsed measures real time inside simulation code.
func Elapsed(start time.Time) float64 {
	return time.Since(start).Seconds() // want "wall-clock read time.Since"
}

// Pause sleeps on the wall clock.
func Pause() {
	time.Sleep(time.Millisecond) // want "wall-clock timer time.Sleep"
}

// Draw uses the shared global math/rand source.
func Draw() int {
	return rand.Intn(10) // want "global math/rand call rand.Intn"
}

// SeededDraw builds an explicit seeded stream: allowed.
func SeededDraw(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// Keys publishes map iteration order through an unsorted append.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m { // want "map iteration appends to out without a later sort"
		out = append(out, k)
	}
	return out
}

// SortedKeys launders the order through a sort: allowed.
func SortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Dump writes output in map order.
func Dump(m map[string]int) {
	for k, v := range m { // want "map iteration order reaches an output write"
		fmt.Println(k, v)
	}
}

// Publish sends on a channel in map order.
func Publish(m map[string]int, ch chan string) {
	for k := range m { // want "map iteration order reaches a channel send"
		ch <- k
	}
}

// Emit records telemetry events in map order.
func Emit(tr *telemetry.Tracer, m map[string]int) {
	for k := range m { // want "map iteration order reaches a telemetry emission"
		tr.Event(k)
	}
}

// Suppressed exercises the ignore-directive path: the diagnostic below is
// expected to be filtered out, so there is no want comment.
func Suppressed() int64 {
	//lint:ignore determinism fixture exercises the suppression path
	return time.Now().Unix()
}
