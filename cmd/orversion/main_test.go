package main

import (
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	if err := run([]string{"-shift", "13", "-top", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-shift", "2"}); err == nil {
		t.Error("tiny shift accepted")
	}
	if err := run([]string{"-year", "1999"}); err == nil {
		t.Error("unknown year accepted")
	}
	if err := run([]string{"-shift", "276"}); err == nil || !strings.Contains(err.Error(), "0 to 255") {
		t.Errorf("-shift 276: got %v, want an out-of-range error", err)
	}
}
