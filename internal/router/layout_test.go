package router

import (
	"testing"
	"unsafe"
)

// TestLayout pins the sizes of the records a router holds one of per
// processed signalling hop above its source's low-water mark: the hop
// table's key is 24 bytes (a connection, a sequence, and a hop, kind and
// channel packed in one word) and its value 24 bytes (the reason's string
// header, the failed hop and the outcome). A field that widens either
// multiplies by the records in flight at every router.
func TestLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"router.dedupKey", unsafe.Sizeof(dedupKey{}), 24},
		{"router.sigResult", unsafe.Sizeof(sigResult{}), 24},
		{"router.splitmix", unsafe.Sizeof(splitmix(0)), 8},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// TestRetryJitter holds the retransmission jitter to its contract: every
// draw scales a backoff by a factor in [0.8, 1.2), a node's stream is the
// same on every start, and two nodes draw different streams.
func TestRetryJitter(t *testing.T) {
	const draws = 10000
	a, again, b := newRetryJitter(3), newRetryJitter(3), newRetryJitter(4)
	same, differ := true, false
	for i := 0; i < draws; i++ {
		x, y, z := a.float64(), again.float64(), b.float64()
		if f := 0.8 + 0.4*x; f < 0.8 || f >= 1.2 {
			t.Fatalf("draw %d scales a backoff by %v, outside [0.8, 1.2)", i, f)
		}
		same = same && x == y
		differ = differ || x != z
	}
	if !same {
		t.Error("node 3's jitter stream differs between two starts")
	}
	if !differ {
		t.Error("nodes 3 and 4 draw the same jitter stream")
	}
}
