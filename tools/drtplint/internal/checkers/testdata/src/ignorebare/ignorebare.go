// Package ignorebare exercises the suppression contract shared by every
// analyzer: an ignore directive without a justification is a finding in
// its own right. Each directive below names one analyzer; running that
// analyzer over this package must yield exactly the bare-directive
// diagnostic and nothing else (the code is inert on purpose).
package ignorebare

//drtplint:ignore determinism
func a() {}

//drtplint:ignore lockorder
func b() {}
