//go:build unix

package telemetry

import (
	"runtime"
	"syscall"
)

// peakRSS returns the process's peak resident set size in bytes, from
// getrusage's ru_maxrss, which Darwin reports in bytes and the other
// unixes in KiB; 0 if getrusage fails.
func peakRSS() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil || ru.Maxrss <= 0 {
		return 0
	}
	if runtime.GOOS == "darwin" || runtime.GOOS == "ios" {
		return uint64(ru.Maxrss)
	}
	return uint64(ru.Maxrss) << 10
}
