package checkers

import (
	"testing"

	"github.com/rtcl/drtp/tools/drtplint/internal/analysis/analysistest"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", Determinism, "experiments", "sim", "webserver", "faultinject", "router")
}

// TestLockOrder covers both halves of the analyzer: the acquisition graph
// (lockorder) and the guarded-by field contract (lockfix).
func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata", LockOrder, "lockorder", "lockfix")
}
