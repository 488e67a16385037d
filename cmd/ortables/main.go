// Command ortables regenerates every table and figure of the paper and
// prints a paper-vs-measured comparison, optionally as Markdown (the
// format of EXPERIMENTS.md).
//
// Usage:
//
//	ortables [-shift N] [-seed N] [-markdown]
//
// At -shift 0 (default) the full-scale campaigns are synthesized and every
// value must match the paper exactly (up to the documented reconciliations
// of its internal arithmetic).
package main

import (
	"flag"
	"fmt"
	"os"

	"openresolver/internal/analysis"
	"openresolver/internal/core"
	"openresolver/internal/paperdata"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ortables:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ortables", flag.ContinueOnError)
	var shift uint8
	core.ShiftVar(fs, &shift, "sample shift: scale campaigns to 1/2^`N`")
	seed := fs.Int64("seed", 1, "population seed")
	markdown := fs.Bool("markdown", false, "emit Markdown tables")
	if err := fs.Parse(args); err != nil {
		return err
	}

	for _, y := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		ds, err := core.RunSynthetic(core.Config{
			Year: y, SampleShift: shift, Seed: *seed,
		})
		if err != nil {
			return fmt.Errorf("campaign %d: %w", y, err)
		}
		deltas := ds.Report.CompareToPaper()
		matched, total := analysis.Matches(deltas)
		if *markdown {
			fmt.Printf("\n## Campaign %d — paper vs measured (%d/%d exact)\n\n", y, matched, total)
			fmt.Println("| Table | Metric | Paper | Measured | Match | Note |")
			fmt.Println("|---|---|---:|---:|:-:|---|")
			for _, dd := range deltas {
				mark := "✗"
				if dd.Match {
					mark = "✓"
				}
				fmt.Printf("| %s | %s | %s | %s | %s | %s |\n",
					dd.Table, dd.Metric, dd.Paper, dd.Measured, mark, dd.Note)
			}
			continue
		}
		fmt.Printf("\n===== Campaign %d: %d/%d metrics exact =====\n", y, matched, total)
		for _, dd := range deltas {
			mark := "MATCH"
			if !dd.Match {
				mark = "DIFF "
			}
			note := dd.Note
			if note != "" {
				note = "  [" + note + "]"
			}
			fmt.Printf("%s %-14s %-32s paper=%-28s measured=%s%s\n",
				mark, dd.Table, dd.Metric, dd.Paper, dd.Measured, note)
		}
	}

	if *markdown {
		fmt.Println("\n## Documented discrepancies in the paper's printed numbers")
		fmt.Println()
		fmt.Println("| ID | Where | Issue | Resolution |")
		fmt.Println("|---|---|---|---|")
		for _, disc := range paperdata.Discrepancies {
			fmt.Printf("| %s | %s | %s | %s |\n", disc.ID, disc.Where, disc.Issue, disc.Resolution)
		}
	} else {
		fmt.Println("\nDocumented discrepancies in the paper's printed numbers:")
		for _, disc := range paperdata.Discrepancies {
			fmt.Printf("  %s %s\n     issue: %s\n     resolution: %s\n", disc.ID, disc.Where, disc.Issue, disc.Resolution)
		}
	}
	return nil
}
