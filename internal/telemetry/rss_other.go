//go:build !unix

package telemetry

// peakRSS has no portable source off unix; 0 leaves the manifest field
// out.
func peakRSS() uint64 { return 0 }
