//go:build !linux

package sched

// osYield is a no-op where there is no sched_yield to call: the spinner
// yields to goroutines only.
func osYield() {}
