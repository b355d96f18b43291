package bitvec

import "testing"

// FuzzFromBytes checks that arbitrary byte inputs never panic and always
// round-trip consistently through Bytes().
func FuzzFromBytes(f *testing.F) {
	f.Add(10, []byte{0xff})
	f.Add(0, []byte{})
	f.Add(64, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(3, []byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, n int, data []byte) {
		if n < 0 || n > 1<<16 {
			return
		}
		v := FromBytes(n, data)
		if v.Len() != n {
			t.Fatalf("Len = %d, want %d", v.Len(), n)
		}
		if v.Count() > n {
			t.Fatalf("Count %d exceeds length %d (tail not masked)", v.Count(), n)
		}
		// Round trip is exact once the input is canonicalized.
		again := FromBytes(n, v.Bytes())
		if !v.Equal(again) {
			t.Fatal("Bytes/FromBytes round trip diverged")
		}
	})
}
