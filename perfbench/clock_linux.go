//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU returns the CPU time the calling OS thread has used. A kernel
// with paravirtual steal accounting (CONFIG_PARAVIRT_TIME_ACCOUNTING, as
// KVM guests have) leaves out of it the time the hypervisor ran other guests
// on the vCPU.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
