package controlplane

// MaxIdleWorkers exposes the bound on parked request goroutines.
const MaxIdleWorkers = maxIdleWorkers
