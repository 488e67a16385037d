// Command orreplay re-analyzes a persisted R2 capture log offline —
// the workflow the paper used with its tcpdump/pcap files: capture once,
// analyze many times.
//
// Usage:
//
//	orsurvey -mode sim -shift 12 -capture r2.orlog   # produce a capture
//	orreplay -year 2018 r2.orlog                     # re-run the analysis
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"openresolver/internal/analysis"
	"openresolver/internal/capture"
	"openresolver/internal/geo"
	"openresolver/internal/paperdata"
	"openresolver/internal/threatintel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "orreplay:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("orreplay", flag.ContinueOnError)
	year := fs.Int("year", 2018, "campaign year the capture came from (2013 or 2018)")
	seed := fs.Int64("seed", 1, "seed of the campaign (selects the threat landscape)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: orreplay [-year Y] [-seed N] <capture.orlog>")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	r2, err := capture.ReadFile(data)
	if err != nil {
		return fmt.Errorf("read capture: %w", err)
	}

	feed := threatintel.NewFeed(paperdata.Year(*year), *seed)
	acc := analysis.NewAccumulator(analysis.Config{
		Year:   paperdata.Year(*year),
		Threat: feed.DB,
		Geo:    geo.DefaultRegistry(),
	})
	var counts analysis.CampaignCounts
	for it := r2.Iter(); it.Next(); {
		p := it.Packet()
		if p.Kind != capture.KindR2 {
			continue
		}
		counts.R2++
		if p.At > counts.Duration {
			counts.Duration = p.At
		}
		acc.AddR2(p.Src, p.Payload)
	}
	report := acc.Report(counts)
	_, err = fmt.Fprintf(stdout, "replayed %d R2 packets from %s\n\n%s", counts.R2, fs.Arg(0), report.RenderAll())
	return err
}
