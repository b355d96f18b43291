// Package bitvec implements a dense, fixed-length bit vector. It backs the
// Conflict Vectors of the D-LSR routing scheme, where each link advertises
// one bit per network link. A vector is n/8 bytes whatever it holds, so a
// view of every link's CV is links² bits; the web-scale path never builds
// one (see lsdb.ConflictCountsInto and lsdb.AppendCV).
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length bit vector. The zero value is an empty vector
// of length 0; use New to create one with a given length.
type Vector struct {
	n     int
	words []uint64
}

// New creates a zeroed vector of n bits.
func New(n int) *Vector {
	if n < 0 {
		n = 0
	}
	return &Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromBits creates a vector from 0/1 integers, one per bit.
func FromBits(bits []int) *Vector {
	v := New(len(bits))
	for i, b := range bits {
		if b != 0 {
			v.Set(i)
		}
	}
	return v
}

// Len returns the number of bits.
func (v *Vector) Len() int { return v.n }

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of set bits (population count).
func (v *Vector) Count() int {
	total := 0
	for _, w := range v.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Any reports whether any bit is set.
func (v *Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// AndCount returns the number of positions set in both v and other.
// It panics if lengths differ.
func (v *Vector) AndCount(other *Vector) int {
	v.checkLen(other)
	total := 0
	for i, w := range v.words {
		total += bits.OnesCount64(w & other.words[i])
	}
	return total
}

// Or sets v to the bitwise OR of v and other. It panics if lengths differ.
func (v *Vector) Or(other *Vector) {
	v.checkLen(other)
	for i := range v.words {
		v.words[i] |= other.words[i]
	}
}

// Intersects reports whether v and other share any set bit.
func (v *Vector) Intersects(other *Vector) bool {
	v.checkLen(other)
	for i, w := range v.words {
		if w&other.words[i] != 0 {
			return true
		}
	}
	return false
}

// Reset clears all bits, retaining storage.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Clone returns a deep copy of the vector.
func (v *Vector) Clone() *Vector {
	c := &Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(c.words, v.words)
	return c
}

// CloneInto copies v into dst, reusing dst's storage when its capacity
// suffices, and returns the destination. A nil dst behaves like Clone.
// The hot paths use this to refresh a retained vector without fresh
// allocations per update.
func (v *Vector) CloneInto(dst *Vector) *Vector {
	if dst == nil {
		return v.Clone()
	}
	dst.n = v.n
	if cap(dst.words) < len(v.words) {
		dst.words = make([]uint64, len(v.words))
	}
	dst.words = dst.words[:len(v.words)]
	copy(dst.words, v.words)
	return dst
}

// Equal reports whether v and other have the same length and bits.
func (v *Vector) Equal(other *Vector) bool {
	if v.n != other.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != other.words[i] {
			return false
		}
	}
	return true
}

// Ones returns the indices of all set bits in increasing order.
func (v *Vector) Ones() []int {
	result := make([]int, 0, v.Count())
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			result = append(result, wi*wordBits+b)
			w &= w - 1
		}
	}
	return result
}

// SizeBytes returns the wire size of the vector in bytes, rounded up. This
// is what D-LSR's link-state advertisement costs per link.
func (v *Vector) SizeBytes() int { return (v.n + 7) / 8 }

// Bytes packs the vector little-endian into SizeBytes() bytes, the wire
// form of a Conflict Vector advertisement.
func (v *Vector) Bytes() []byte {
	out := make([]byte, v.SizeBytes())
	v.writeBytes(out)
	return out
}

// writeBytes fills out (SizeBytes long) with the wire form.
func (v *Vector) writeBytes(out []byte) {
	for i, w := range v.words {
		for b := 0; b < 8; b++ {
			idx := i*8 + b
			if idx >= len(out) {
				break
			}
			out[idx] = byte(w >> uint(8*b))
		}
	}
}

// FromBytes reconstructs an n-bit vector from its Bytes form. Extra bytes
// are ignored; missing bytes read as zero.
func FromBytes(n int, data []byte) *Vector {
	v := New(n)
	v.SetBytes(data)
	return v
}

// SetBytes reloads the vector in place from its Bytes wire form without
// changing its length, so a long-lived vector (a router's mirrored
// Conflict Vector view) absorbs each advertisement with zero
// allocations. Extra bytes are ignored; missing bytes read as zero.
func (v *Vector) SetBytes(data []byte) {
	for i := range v.words {
		var w uint64
		for b := 0; b < 8; b++ {
			idx := i*8 + b
			if idx >= len(data) {
				break
			}
			w |= uint64(data[idx]) << uint(8*b)
		}
		v.words[i] = w
	}
	// Mask tail bits beyond n.
	if rem := v.n % wordBits; rem != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << uint(rem)) - 1
	}
}

// AppendBytes appends the vector's Bytes wire form to dst and returns
// the extended slice, letting callers that assemble advertisements reuse
// one buffer instead of allocating per Bytes call.
func (v *Vector) AppendBytes(dst []byte) []byte {
	start := len(dst)
	for i := 0; i < v.SizeBytes(); i++ {
		dst = append(dst, 0)
	}
	v.writeBytes(dst[start:])
	return dst
}

// String renders the vector as a parenthesized bit list, matching the
// paper's notation, e.g. "(1,0,1)".
func (v *Vector) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i := 0; i < v.n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	b.WriteByte(')')
	return b.String()
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

func (v *Vector) checkLen(other *Vector) {
	if v.n != other.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d != %d", v.n, other.n))
	}
}
