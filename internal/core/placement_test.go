package core

import (
	"slices"
	"strings"
	"testing"

	"openresolver/internal/behavior"
	"openresolver/internal/ipv4"
	"openresolver/internal/paperdata"
	"openresolver/internal/population"
)

// TestShardPlacement pins the resolver placement every sim shard relies
// on: each drawn address sits in exactly one shard's list, that shard's
// probe range holds the address's position (so the shard's prober is the
// only one that reaches it), every cohort keeps its count, and the lists
// sum to the population. A forwarder cohort is refused.
func TestShardPlacement(t *testing.T) {
	for _, cfg := range []Config{
		{Year: paperdata.Y2013, SampleShift: 14, Seed: 1},
		{Year: paperdata.Y2018, SampleShift: 12, Seed: 7},
	} {
		pop, feed, err := buildDeps(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, u, a, err := openAssigner(cfg, pop)
		if err != nil {
			t.Fatal(err)
		}
		shards := planSimShards(cfg, u)
		hosts, err := placeSimHosts(pop, a, u, shards)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[ipv4.Addr]int)
		perCohort := make([]uint64, len(pop.Cohorts))
		total := 0
		for w, list := range hosts {
			sh := shards[w]
			for _, h := range list {
				if prev, dup := seen[h.addr]; dup {
					t.Fatalf("%d: %v placed in shards %d and %d", cfg.Year, h.addr, prev, w)
				}
				seen[h.addr] = w
				pos, ok := u.Position(h.addr)
				if !ok || pos < sh.start || pos >= sh.end {
					t.Fatalf("%d: %v (position %d, %v) placed in shard %d = [%d, %d)", cfg.Year, h.addr, pos, ok, w, sh.start, sh.end)
				}
				perCohort[h.cohort]++
			}
			total += len(list)
		}
		if uint64(total) != pop.ExpectedR2 {
			t.Errorf("%d: placed %d resolvers, want ExpectedR2 %d", cfg.Year, total, pop.ExpectedR2)
		}
		for ci, c := range pop.Cohorts {
			if perCohort[ci] != c.Count {
				t.Errorf("%d: cohort %d placed %d, want %d", cfg.Year, ci, perCohort[ci], c.Count)
			}
		}
		if len(hosts) > 1 && len(hosts[0]) == total {
			t.Errorf("%d: every resolver landed in shard 0", cfg.Year)
		}

		fwd := *pop
		fwd.Cohorts = append(slices.Clone(pop.Cohorts), population.Cohort{
			Count: 1, Profile: behavior.Forwarder(ipv4.MustParseAddr("66.10.20.30")),
		})
		fwd.ExpectedR2++
		if _, err := openSimCampaign(cfg, &fwd, feed.DB); err == nil || !strings.Contains(err.Error(), "forwarder") {
			t.Errorf("%d: forwarder cohort: err = %v, want a forwarder refusal", cfg.Year, err)
		}
	}
}
