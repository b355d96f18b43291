package proto

// MaxWireSlice exposes the decoder's element-count cap to the hostile-
// input tests.
const MaxWireSlice = maxWireSlice

// Registered returns the zero value of every registered wire message, in
// registry order.
func Registered() []Message {
	out := make([]Message, len(registry))
	for i, m := range registry {
		out[i] = m
	}
	return out
}
