package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestRun pins the survey's output at -shift 13 -top 5 byte for byte: the
// placement, the banner draws and the scan are all deterministic.
func TestRun(t *testing.T) {
	const want = "24e18a3cafdbf28a98add4b8318e763a0a57a6e414e082f678d8aebe6bb0c877"
	var out bytes.Buffer
	if err := run([]string{"-shift", "13", "-top", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != want {
		t.Errorf("output digest %s, want %s; output:\n%s", got, want, out.Bytes())
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-shift", "2"}, io.Discard); err == nil {
		t.Error("tiny shift accepted")
	}
	if err := run([]string{"-year", "1999"}, io.Discard); err == nil {
		t.Error("unknown year accepted")
	}
	if err := run([]string{"-shift", "276"}, io.Discard); err == nil || !strings.Contains(err.Error(), "0 to 255") {
		t.Errorf("-shift 276: got %v, want an out-of-range error", err)
	}
}
