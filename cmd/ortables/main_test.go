package main

import (
	"strings"
	"testing"
)

func TestRunScaled(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two scaled campaigns")
	}
	if err := run([]string{"-shift", "12"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-shift", "12", "-markdown"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-shift", "276"}); err == nil || !strings.Contains(err.Error(), "0 to 255") {
		t.Errorf("-shift 276: got %v, want an out-of-range error", err)
	}
}
