package checkers

import (
	"testing"

	"github.com/rtcl/drtp/tools/drtplint/internal/analysis/analysistest"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", Determinism, "experiments", "sim", "webserver", "faultinject")
}

func TestNilTracer(t *testing.T) {
	analysistest.Run(t, "testdata", NilTracer, "telemetry", "consumer")
}

func TestCVClone(t *testing.T) {
	analysistest.Run(t, "testdata", CVClone, "cvuser")
}

func TestLockGuard(t *testing.T) {
	analysistest.Run(t, "testdata", LockGuard, "lockfix")
}

func TestInstrumentNames(t *testing.T) {
	analysistest.Run(t, "testdata", InstrumentNames, "instrument")
}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata", LockOrder, "lockorder")
}

func TestGoroLife(t *testing.T) {
	analysistest.Run(t, "testdata", GoroLife, "gorolife")
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", HotAlloc, "hotalloc")
}
