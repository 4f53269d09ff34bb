package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunRejectsPositionalArgs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"extra"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "extra") {
		t.Fatalf("run(extra) = %v, want an error naming the argument", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("run(extra) printed %q", stdout.String())
	}
}

func TestRunDemos(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"== Self-ballooning (Figure 9) ==",
		"guest segment live:",
		"== I/O gap reclamation",
		"== Host compaction enabling Dual Direct (Table III) ==",
		"Dual Direct now possible",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-bogus"}, &stdout, &stderr); err == nil {
		t.Fatal("run(-bogus) succeeded")
	}
	if !strings.Contains(stderr.String(), "-bogus") {
		t.Errorf("stderr %q does not name the bad flag", stderr.String())
	}
}
