package main

import (
	"syscall"
	"time"
)

// cpuTime returns the CPU time the process has used so far, user plus
// system, over all its threads.
func cpuTime() time.Duration {
	h, err := syscall.GetCurrentProcess()
	if err != nil {
		panic(err) // the pseudo-handle of the current process cannot fail
	}
	var created, exited, kernel, user syscall.Filetime
	if err := syscall.GetProcessTimes(h, &created, &exited, &kernel, &user); err != nil {
		panic(err) // the current process can always be queried
	}
	ticks := func(f syscall.Filetime) int64 { return int64(f.HighDateTime)<<32 | int64(f.LowDateTime) }
	return time.Duration((ticks(kernel) + ticks(user)) * 100)
}
