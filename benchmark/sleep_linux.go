package main

import (
	"syscall"
	"time"
)

// sleepFor is a nanosleep: Go's own timers round to the netpoller's
// millisecond on Linux, which is coarser than the open loop's gaps.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early return (EINTR) is fine: the caller re-checks the clock
}
