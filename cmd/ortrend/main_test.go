package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	if err := run([]string{"-epochs", "2", "-shift", "13"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunWorkers(t *testing.T) {
	if err := run([]string{"-epochs", "2", "-shift", "13", "-workers", "2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-epochs", "1"}, io.Discard); err == nil {
		t.Error("single epoch accepted")
	}
	if err := run([]string{"-shift", "276"}, io.Discard); err == nil || !strings.Contains(err.Error(), "0 to 255") {
		t.Errorf("-shift 276: got %v, want an out-of-range error", err)
	}
}

func TestUsageListsWorkers(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-h"}, &buf); err != nil {
		t.Fatalf("-h returned error: %v", err)
	}
	usage := buf.String()
	for _, flag := range []string{"-workers", "-epochs", "-shift"} {
		if !strings.Contains(usage, flag) {
			t.Errorf("usage output missing %s:\n%s", flag, usage)
		}
	}
}
