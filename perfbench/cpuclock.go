package main

import (
	"syscall"
	"time"
)

// cpuTime returns the CPU time the process has used so far, user and
// system, summed over its threads. On a virtual machine with
// paravirtual steal-time accounting (Linux
// CONFIG_PARAVIRT_TIME_ACCOUNTING), it leaves out the time the
// hypervisor gave the CPU to other guests, which wall-clock time
// includes. On a shared virtual machine with 2 Xeon vCPUs, steal
// bursts moved wall-clock throughput by a fifth between runs minutes
// apart.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error()) // only fails on a bad argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
