// The run manifest: one JSON document per invocation recording what ran
// and how — tool, arguments, config, build info, host, wall clock,
// per-cell/section timings, and the final metric snapshot. Written next
// to the results so a recorded number can always be traced back to the
// exact binary and settings that produced it.

package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// BuildInfo is the binary's identity, read from the Go build metadata
// stamped at link time (runtime/debug.ReadBuildInfo).
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Path      string `json:"path,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
	VCSTime   string `json:"vcs_time,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"`
}

// Build reads the running binary's build info. Fields absent from the
// build metadata (e.g. VCS stamps in a plain `go test`) are empty.
func Build() BuildInfo {
	b := BuildInfo{GoVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.Path = info.Main.Path
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.time":
			b.VCSTime = s.Value
		case "vcs.modified":
			b.Modified = s.Value == "true"
		}
	}
	return b
}

// VersionString renders the build info as the one-line output of a
// -version flag.
func VersionString(tool string) string {
	b := Build()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s", tool, b.GoVersion)
	if b.Path != "" {
		fmt.Fprintf(&sb, " (%s)", b.Path)
	}
	if b.Revision != "" {
		rev := b.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Fprintf(&sb, " rev %s", rev)
		if b.Modified {
			sb.WriteString("+dirty")
		}
	}
	return sb.String()
}

// HostInfo describes the machine the run executed on.
type HostInfo struct {
	OS   string `json:"os"`
	Arch string `json:"arch"`
	CPUs int    `json:"cpus"`
}

// ManifestSchemaVersion is the manifest schema this package writes and
// understands. History: v1 was the unversioned PR 3 shape (implicitly
// version 0 on disk); v2 adds schema_version itself and the
// interpolated p50/p95/p99 fields on histogram snapshots; v3 adds the
// section name to cell timings and the per-section cell sums
// (sections). v3 documents may also carry peak_rss_bytes; a reader
// that predates it ignores the field, so it needed no new version.
const ManifestSchemaVersion = 3

// Manifest is the serialized run record.
type Manifest struct {
	SchemaVersion int               `json:"schema_version"`
	Tool          string            `json:"tool"`
	Args          []string          `json:"args"`
	Config        map[string]string `json:"config,omitempty"`
	Build         BuildInfo         `json:"build"`
	Host          HostInfo          `json:"host"`
	Start         time.Time         `json:"start"`
	DurationMS    float64           `json:"duration_ms"`
	PeakRSSBytes  uint64            `json:"peak_rss_bytes,omitempty"` // peak RSS so far; absent off unix
	Error         string            `json:"error,omitempty"`
	Timings       []Timing          `json:"timings,omitempty"`
	Sections      []SectionTime     `json:"sections,omitempty"`
	Metrics       Snapshot          `json:"metrics"`
}

// SectionTime sums the cell spans that ran under one report section.
// Sections run at once and share one worker pool, so a section span
// lasts about as long as the whole run; the summed cell time is what
// the section cost.
type SectionTime struct {
	Name   string  `json:"name"`
	Cells  int     `json:"cells"`
	CellMS float64 `json:"cell_ms"`
}

// sectionTimes sums the cell timings by section, in name order; cells
// that ran under no section are left out.
func sectionTimes(timings []Timing) []SectionTime {
	at := map[string]int{}
	var out []SectionTime
	for _, t := range timings {
		if t.Cat != "cell" || t.Section == "" {
			continue
		}
		i, ok := at[t.Section]
		if !ok {
			i = len(out)
			at[t.Section] = i
			out = append(out, SectionTime{Name: t.Section})
		}
		out[i].Cells++
		out[i].CellMS += t.DurMS
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Manifest assembles the run record as of now. runErr, when non-nil, is
// recorded so a manifest from a failed run says so.
func (r *Run) Manifest(runErr error) Manifest {
	timings := r.Timings()
	m := Manifest{
		SchemaVersion: ManifestSchemaVersion,
		Tool:          r.Tool,
		Args:          os.Args[1:],
		Config:        r.Config,
		Build:         Build(),
		Host: HostInfo{
			OS:   runtime.GOOS,
			Arch: runtime.GOARCH,
			CPUs: runtime.NumCPU(),
		},
		Start:      r.StartTime,
		DurationMS: time.Since(r.StartTime).Seconds() * 1e3,
		Timings:    timings,
		Sections:   sectionTimes(timings),
		Metrics:    Default().Snapshot(),
	}
	m.PeakRSSBytes = peakRSS()
	if runErr != nil {
		m.Error = runErr.Error()
	}
	return m
}

// WriteManifest writes the manifest as indented JSON.
func (r *Run) WriteManifest(path string, runErr error) error {
	data, err := json.MarshalIndent(r.Manifest(runErr), "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: encoding manifest: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("telemetry: writing manifest: %w", err)
	}
	return nil
}

// ReadManifest loads and validates a manifest written by WriteManifest.
// Unknown schema versions are rejected, not guessed at: a v0 document
// (pre-versioning, no schema_version field) and any future version both
// fail with an error naming the versions involved, so tooling never
// silently misreads a shape it predates or postdates.
func ReadManifest(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, fmt.Errorf("telemetry: reading manifest: %w", err)
	}
	return ParseManifest(data)
}

// ParseManifest decodes and version-checks manifest JSON.
func ParseManifest(data []byte) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("telemetry: decoding manifest: %w", err)
	}
	if m.SchemaVersion != ManifestSchemaVersion {
		return Manifest{}, fmt.Errorf("telemetry: manifest has schema_version %d; this reader understands %d",
			m.SchemaVersion, ManifestSchemaVersion)
	}
	return m, nil
}
