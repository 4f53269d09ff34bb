//go:build unix

package telemetry

import "testing"

// TestManifestPeakRSS: on unix the manifest carries the process's peak
// RSS, which for a test binary is megabytes, not bytes or terabytes.
func TestManifestPeakRSS(t *testing.T) {
	r := StartRun("test-tool", nil, false)
	defer r.Stop()
	if got := r.Manifest(nil).PeakRSSBytes; got < 1<<20 || got > 1<<40 {
		t.Errorf("peak_rss_bytes = %d", got)
	}
}
