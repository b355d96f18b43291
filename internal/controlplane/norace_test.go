//go:build !race

package controlplane_test

const raceEnabled = false
