//go:build !linux

package bench

import "time"

var clockStart = time.Now()

// threadNow is the wall clock where no per-thread CPU clock is read.
func threadNow() time.Duration { return time.Since(clockStart) }
