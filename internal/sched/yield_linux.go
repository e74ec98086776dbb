package sched

import "syscall"

// osYield offers the spinning thread's CPU to any other runnable thread, of
// this process or another, before the spinner polls again: runtime.Gosched
// alone yields only to goroutines, and a spinner that never leaves its CPU
// slows whatever else the machine runs by as much as it spins.
func osYield() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
