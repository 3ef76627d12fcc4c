package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is CLOCK_THREAD_CPUTIME_ID of clock_gettime(2).
const clockThreadCPUTimeID = 3

// threadCPU returns the CPU time the calling OS thread has used; the
// caller pins its goroutine with runtime.LockOSThread so that
// consecutive reads see the same thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// processCPU returns the user plus system CPU time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
