package controlplane

// MaxIdleWorkers exposes the bound on parked request goroutines.
const MaxIdleWorkers = maxIdleWorkers

// Call exposes one request/reply exchange.
var Call = call
