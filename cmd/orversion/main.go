// Command orversion reproduces the resolver-software survey the paper
// cites as reference [8] (Takano et al.): it instantiates the measured
// open-resolver population at a sampled scale, probes every responder with
// a CHAOS-class version.bind TXT query, and tabulates the software banners.
//
// Usage:
//
//	orversion [-year 2018] [-shift 12] [-seed 1] [-top 12]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"openresolver/internal/behavior"
	"openresolver/internal/core"
	"openresolver/internal/fingerprint"
	"openresolver/internal/geo"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
	"openresolver/internal/paperdata"
	"openresolver/internal/population"
	"openresolver/internal/scan"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "orversion:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("orversion", flag.ContinueOnError)
	year := fs.Int("year", 2018, "campaign year (2013 or 2018)")
	shift := uint8(12)
	core.ShiftVar(fs, &shift, "sample shift: scale to 1/2^`N`")
	seed := fs.Int64("seed", 1, "deterministic seed")
	top := fs.Int("top", 12, "banners to list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if shift < 6 {
		return fmt.Errorf("shift %d too small for host-level simulation", shift)
	}

	pop, err := population.Build(population.Config{
		Year: paperdata.Year(*year), SampleShift: shift, Seed: *seed,
	})
	if err != nil {
		return err
	}
	u, err := scan.NewUniverse(uint64(*seed), shift, ipv4.NewReservedBlocklist())
	if err != nil {
		return err
	}
	assigner, err := population.NewAssigner(u, geo.DefaultRegistry(), pop,
		core.ProberAddr, core.RootAddr, core.TLDAddr, core.AuthAddr)
	if err != nil {
		return err
	}

	sim := netsim.New(netsim.Config{
		Seed:    *seed,
		Latency: netsim.UniformLatency(5*time.Millisecond, 60*time.Millisecond),
	})
	rng := rand.New(rand.NewSource(*seed ^ 0xF17))
	var targets []ipv4.Addr
	for _, cohort := range pop.Cohorts {
		for i := uint64(0); i < cohort.Count; i++ {
			src, err := assigner.Next(cohort.Country)
			if err != nil {
				return err
			}
			profile := cohort.Profile
			profile.Upstream = 0 // no hierarchy in this survey
			profile.Version = fingerprint.Assign(rng, fingerprint.DefaultDistribution)
			behavior.NewResolver(sim, src, core.RootAddr, profile)
			targets = append(targets, src)
		}
	}

	res, err := fingerprint.Scan(sim, core.ProberAddr, targets)
	if err != nil {
		return err
	}

	fmt.Printf("version.bind survey over %d responders (%d campaign, 1/%d sample)\n\n",
		res.Probed, *year, uint64(1)<<shift)
	fmt.Printf("%-44s %8s %8s\n", "banner", "count", "share")
	for _, v := range res.Top(*top) {
		fmt.Printf("%-44s %8d %7.1f%%\n", v.Banner, v.Weight,
			float64(v.Weight)/float64(res.Probed)*100)
	}
	fmt.Printf("%-44s %8d %7.1f%%\n", "(banner withheld)", res.Refused,
		float64(res.Refused)/float64(res.Probed)*100)
	if res.Silent > 0 {
		fmt.Printf("%-44s %8d\n", "(silent)", res.Silent)
	}
	fmt.Println("\nEmbedded forwarder builds (dnsmasq) dominate, as Takano et al. [8]")
	fmt.Println("observed — the same CPE population behind the paper's deviant flags.")
	return nil
}
