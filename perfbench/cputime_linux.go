package main

import (
	"syscall"
	"time"
	"unsafe"
)

// cpuTime is the CPU time of all the process's threads, from the
// nanosecond process clock (getrusage counts in coarser steps). On a
// shared host the wall time of CPU-bound work mostly measures the
// neighbours, which deschedule the process; its CPU time does not
// include that wait.
func cpuTime() time.Duration {
	const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
