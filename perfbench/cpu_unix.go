//go:build unix

package main

import (
	"syscall"
	"time"
)

// cpuTime returns the CPU time the process has used so far, user plus
// system, over all its threads. Unlike wall time it excludes the time
// the host steals from the machine's virtual CPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
