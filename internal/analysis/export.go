package analysis

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"openresolver/internal/paperdata"
)

// Machine-readable report export: JSON for the whole report and CSV for
// the individual tables, so downstream tooling (dashboards, notebooks, the
// continuous-monitoring pipeline of §V) can consume campaign results
// without parsing the text rendering.

// JSON serializes the full report.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// WriteCSV emits one named table as CSV. Supported tables: "correctness"
// (Table III), "ra" (IV), "aa" (V), "rcode" (VI), "forms" (VII), "top10"
// (VIII), "malicious" (IX), "geo".
func (r *Report) WriteCSV(w io.Writer, table string) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	u := func(n uint64) string { return strconv.FormatUint(n, 10) }
	switch table {
	case "correctness":
		if err := cw.Write([]string{"r2", "without", "correct", "incorrect", "err_pct"}); err != nil {
			return err
		}
		c := r.Correctness
		return cw.Write([]string{
			u(c.R2), u(c.Without), u(c.Correct), u(c.Incorr),
			strconv.FormatFloat(c.ErrPct(), 'f', 3, 64),
		})
	case "ra", "aa":
		t := r.RA
		if table == "aa" {
			t = r.AA
		}
		if err := cw.Write([]string{"flag", "without", "correct", "incorrect", "total"}); err != nil {
			return err
		}
		for i, row := range []paperdata.FlagRow{t.Flag0, t.Flag1} {
			rec := []string{strconv.Itoa(i), u(row.Without), u(row.Correct), u(row.Incorr), u(row.Total())}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
		return nil
	case "rcode":
		if err := cw.Write([]string{"rcode", "name", "with_answer", "without_answer"}); err != nil {
			return err
		}
		for i := 0; i < 10; i++ {
			rec := []string{strconv.Itoa(i), paperdata.RcodeNames[i], u(r.Rcode.With[i]), u(r.Rcode.Without[i])}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
		return nil
	case "forms":
		if err := cw.Write([]string{"form", "packets", "unique"}); err != nil {
			return err
		}
		rows := []struct {
			name string
			fc   paperdata.FormCount
		}{
			{"ip", r.Forms.IP}, {"url", r.Forms.URL},
			{"string", r.Forms.Str}, {"na", r.Forms.NA},
		}
		for _, row := range rows {
			if err := cw.Write([]string{row.name, u(row.fc.Packets), u(row.fc.Unique)}); err != nil {
				return err
			}
		}
		return nil
	case "top10":
		if err := cw.Write([]string{"rank", "addr", "count", "org", "reported", "private"}); err != nil {
			return err
		}
		for i, t := range r.Top10 {
			rec := []string{
				strconv.Itoa(i + 1), t.Addr, u(t.Count), t.Org,
				strconv.FormatBool(t.Reported), strconv.FormatBool(t.Private),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
		return nil
	case "malicious":
		if err := cw.Write([]string{"category", "unique_ips", "r2"}); err != nil {
			return err
		}
		for _, cat := range paperdata.MalCategories {
			mc := r.Malicious[cat]
			if err := cw.Write([]string{string(cat), u(mc.IPs), u(mc.R2)}); err != nil {
				return err
			}
		}
		return cw.Write([]string{"Total", u(r.MaliciousTotal.IPs), u(r.MaliciousTotal.R2)})
	case "geo":
		if err := cw.Write([]string{"country", "r2"}); err != nil {
			return err
		}
		for _, g := range r.MaliciousGeo {
			if err := cw.Write([]string{g.Country, u(g.R2)}); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("analysis: unknown CSV table %q", table)
}

// CSVTables lists the table names WriteCSV accepts.
var CSVTables = []string{"correctness", "ra", "aa", "rcode", "forms", "top10", "malicious", "geo"}
