package graph

// LinkSet is a set of a graph's links, one bit per LinkID: the marks a
// route search reads per link (down, on the primary, in an LSET) at an
// eighth of a []bool's bytes.
type LinkSet []uint64

// NewLinkSet returns an empty set with room for links [0, n).
func NewLinkSet(n int) LinkSet { return make(LinkSet, (n+63)/64) }

// Has reports whether l is in the set.
func (s LinkSet) Has(l LinkID) bool { return s[uint(l)/64]&(1<<(uint(l)%64)) != 0 }

// Add puts l in the set.
func (s LinkSet) Add(l LinkID) { s[uint(l)/64] |= 1 << (uint(l) % 64) }

// Remove takes l out of the set.
func (s LinkSet) Remove(l LinkID) { s[uint(l)/64] &^= 1 << (uint(l) % 64) }
