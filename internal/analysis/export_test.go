package analysis

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"openresolver/internal/paperdata"
)

func TestJSONRoundTrip(t *testing.T) {
	r := paperPerfectReport(paperdata.Y2018)
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReportFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Correctness != r.Correctness || back.RA != r.RA || back.AA != r.AA {
		t.Error("core tables lost in JSON round trip")
	}
	if back.MaliciousTotal != r.MaliciousTotal || back.MalFlags != r.MalFlags {
		t.Error("malicious tables lost in JSON round trip")
	}
	if len(back.Top10) != len(r.Top10) || back.Top10[0] != r.Top10[0] {
		t.Error("top-10 lost in JSON round trip")
	}
	if len(back.MaliciousGeo) != len(r.MaliciousGeo) {
		t.Error("geo lost in JSON round trip")
	}
	for cat, mc := range r.Malicious {
		if back.Malicious[cat] != mc {
			t.Errorf("category %s lost", cat)
		}
	}
}

func TestJSONRejectsGarbage(t *testing.T) {
	if _, err := ReportFromJSON([]byte("{")); err == nil {
		t.Error("garbage JSON accepted")
	}
}

func TestWriteCSVAllTables(t *testing.T) {
	r := paperPerfectReport(paperdata.Y2018)
	for _, table := range CSVTables {
		var buf bytes.Buffer
		if err := r.WriteCSV(&buf, table); err != nil {
			t.Fatalf("%s: %v", table, err)
		}
		rows, err := csv.NewReader(&buf).ReadAll()
		if err != nil {
			t.Fatalf("%s: reparse: %v", table, err)
		}
		if len(rows) < 2 {
			t.Errorf("%s: only %d rows", table, len(rows))
		}
		// Every row must have the header's width.
		for i, row := range rows {
			if len(row) != len(rows[0]) {
				t.Errorf("%s row %d: %d columns, header has %d", table, i, len(row), len(rows[0]))
			}
		}
	}
}

func TestWriteCSVValues(t *testing.T) {
	r := paperPerfectReport(paperdata.Y2018)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf, "correctness"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "6505764") || !strings.Contains(out, "111093") {
		t.Errorf("correctness CSV = %q", out)
	}
	buf.Reset()
	if err := r.WriteCSV(&buf, "top10"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "216.194.64.193,23692") {
		t.Errorf("top10 CSV = %q", buf.String())
	}
	buf.Reset()
	if err := r.WriteCSV(&buf, "malicious"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Malware,170,23189") {
		t.Errorf("malicious CSV = %q", buf.String())
	}
}

func TestWriteCSVUnknownTable(t *testing.T) {
	r := paperPerfectReport(paperdata.Y2018)
	if err := r.WriteCSV(&bytes.Buffer{}, "nope"); err == nil {
		t.Error("unknown table accepted")
	}
}

// ReportFromJSON deserializes a report produced by JSON.
func ReportFromJSON(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("analysis: decode report: %w", err)
	}
	return &r, nil
}
