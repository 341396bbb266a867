//go:build !linux

package main

import "time"

var clockStart = time.Now()

// threadCPU falls back to wall time where no thread CPU clock is read.
func threadCPU() time.Duration { return time.Since(clockStart) }
