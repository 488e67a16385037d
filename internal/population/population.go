// Package population is the compiler from the paper's reported marginal
// tables to a concrete resolver population: a list of cohorts, each a
// number of resolvers sharing one behaviour profile (header flags, rcode,
// answer payload, upstream-query behaviour) and, for malicious cohorts, a
// country placement.
//
// Construction is exact and deterministic:
//
//  1. R2 packets are partitioned into answer classes (correct / malicious /
//     non-malicious incorrect / no answer) per Tables III and IX.
//  2. Within each class the RA marginal (Table IV) and the reconciled AA
//     marginal (Table V) are joined by the northwest-corner transportation
//     rule; the 2018 malicious class uses Table X's own marginals.
//  3. rcodes (Table VI) are layered onto the flag cells by a
//     capacity-respecting largest-remainder fill.
//  4. Answer payloads (Table VII forms, Table VIII top-10 multiplicities,
//     Table IX per-category malicious addresses from the threat feed, and
//     apportioned long tails) are streamed across the cells.
//  5. Malicious cohorts are placed into countries per the in-text
//     geolocation distribution.
//  6. Upstream-query multiplicities are calibrated so the authoritative
//     server sees exactly Table II's Q2 count.
//
// At full scale (SampleShift 0) every regenerated table matches the paper
// exactly; at reduced scale the cohort counts are largest-remainder scaled
// so all proportions survive.
package population

import (
	"fmt"

	"openresolver/internal/behavior"
	"openresolver/internal/dist"
	"openresolver/internal/dnswire"
	"openresolver/internal/paperdata"
	"openresolver/internal/threatintel"
)

// Class labels a cohort's answer class for bookkeeping and tests.
type Class uint8

// Answer classes.
const (
	ClassCorrect Class = iota + 1
	ClassMalicious
	ClassIncorrect // non-malicious incorrect
	ClassNoAnswer
	ClassEmptyQuestion
)

// String returns a short label for the class.
func (c Class) String() string {
	switch c {
	case ClassCorrect:
		return "correct"
	case ClassMalicious:
		return "malicious"
	case ClassIncorrect:
		return "incorrect"
	case ClassNoAnswer:
		return "noanswer"
	case ClassEmptyQuestion:
		return "emptyq"
	default:
		return fmt.Sprintf("class%d", uint8(c))
	}
}

// Cohort is a group of resolvers sharing one exact behaviour.
type Cohort struct {
	Count   uint64
	Class   Class
	Profile behavior.Profile
	// Country is the ISO code malicious cohorts are placed in ("" = any).
	Country string
	// Category is the threat-intel category for malicious cohorts.
	Category paperdata.MalCategory
}

// Config parameterizes population construction.
type Config struct {
	Year paperdata.Year
	// SampleShift scales the population to 1/2^SampleShift, matching the
	// scanner's systematic sample. 0 reproduces the paper's full counts.
	SampleShift uint8
	// Seed drives synthetic address/name generation.
	Seed int64
	// Feed is the threat landscape; built from (Year, Seed) when nil.
	Feed *threatintel.Feed
}

// Population is the compiled resolver population of one campaign.
type Population struct {
	Year    paperdata.Year
	Shift   uint8
	Cohorts []Cohort
	Feed    *threatintel.Feed

	// ExpectedR2 is the total resolver count (= R2 packets, one response
	// per probed responder).
	ExpectedR2 uint64
	// ExpectedQ2 is the total of upstream authoritative queries the
	// population will generate.
	ExpectedQ2 uint64
}

// flagCell indexes the four (RA, AA) combinations in deterministic order.
var flagCells = [4]struct{ ra, aa bool }{
	{false, false}, {false, true}, {true, false}, {true, true},
}

// Build compiles the population.
func Build(cfg Config) (*Population, error) {
	if _, ok := paperdata.Campaigns[cfg.Year]; !ok {
		return nil, fmt.Errorf("population: unknown year %d", cfg.Year)
	}
	feed := cfg.Feed
	if feed == nil {
		feed = threatintel.NewFeed(cfg.Year, cfg.Seed)
	}
	b := &builder{cfg: cfg, feed: feed}
	if err := b.build(); err != nil {
		return nil, err
	}
	cohorts, err := b.cohorts()
	if err != nil {
		return nil, err
	}

	pop := &Population{
		Year:    cfg.Year,
		Shift:   cfg.SampleShift,
		Cohorts: cohorts,
		Feed:    feed,
	}
	if err := pop.calibrateUpstream(); err != nil {
		return nil, err
	}
	for _, c := range pop.Cohorts {
		pop.ExpectedR2 += c.Count
		pop.ExpectedQ2 += c.Count * uint64(c.Profile.Upstream)
	}
	return pop, nil
}

// resolvingRcodes are the no-answer rcodes whose senders plausibly
// attempted resolution; together with the correct class they carry the Q2
// budget (§ Table II calibration, see DESIGN.md).
func resolvingNoAnswer(rc dnswire.Rcode) bool {
	switch rc {
	case dnswire.RcodeNoError, dnswire.RcodeServFail, dnswire.RcodeNXDomain:
		return true
	}
	return false
}

// calibrateUpstream distributes the campaign's Q2 budget over the cohorts
// that resolve: every correct-class cohort and the no-answer cohorts with
// NoError/ServFail/NXDomain rcodes. Each eligible resolver gets the base
// multiplicity; the remainder get one extra (cohorts are split as needed).
func (p *Population) calibrateUpstream() error {
	target := paperdata.Campaigns[p.Year].Q2R1
	if p.Shift > 0 {
		half := uint64(1) << p.Shift >> 1
		target = (target + half) >> p.Shift
	}
	var eligible uint64
	for _, c := range p.Cohorts {
		if cohortResolves(c) {
			eligible += c.Count
		}
	}
	if eligible == 0 {
		if target != 0 {
			return fmt.Errorf("population: Q2 target %d with no resolving cohorts", target)
		}
		return nil
	}
	base := target / eligible
	extra := target - base*eligible // this many resolvers get base+1

	out := make([]Cohort, 0, len(p.Cohorts)+8)
	for _, c := range p.Cohorts {
		if !cohortResolves(c) {
			out = append(out, c)
			continue
		}
		if extra >= c.Count {
			c.Profile.Upstream = int(base) + 1
			extra -= c.Count
			out = append(out, c)
			continue
		}
		if extra > 0 {
			head := c
			head.Count = extra
			head.Profile.Upstream = int(base) + 1
			out = append(out, head)
			c.Count -= extra
			extra = 0
		}
		c.Profile.Upstream = int(base)
		out = append(out, c)
	}
	p.Cohorts = out
	// base can be 0 only if Q2 < eligible, which never happens for the
	// paper's campaigns; honest cohorts with Upstream 0 would answer from
	// nothing, so reject the configuration instead of mis-simulating.
	if base == 0 && extra == 0 {
		for _, c := range p.Cohorts {
			if c.Class == ClassCorrect && c.Profile.Upstream == 0 {
				return fmt.Errorf("population: Q2 budget %d too small for %d resolving cohort members", target, eligible)
			}
		}
	}
	return nil
}

func cohortResolves(c Cohort) bool {
	switch c.Class {
	case ClassCorrect:
		return true
	case ClassNoAnswer:
		return resolvingNoAnswer(c.Profile.Rcode)
	}
	return false
}

// Stats aggregates cohort counts for tests and reports.
type Stats struct {
	Total      uint64
	ByClass    map[Class]uint64
	RA1        uint64
	AA1        uint64
	WithAnswer uint64
}

// Stats computes aggregate counters over the cohorts.
func (p *Population) Stats() Stats {
	s := Stats{ByClass: make(map[Class]uint64)}
	for _, c := range p.Cohorts {
		s.Total += c.Count
		s.ByClass[c.Class] += c.Count
		if c.Profile.RA {
			s.RA1 += c.Count
		}
		if c.Profile.AA {
			s.AA1 += c.Count
		}
		switch c.Profile.Answer {
		case behavior.AnswerTruth, behavior.AnswerFixed, behavior.AnswerCNAME,
			behavior.AnswerTXT, behavior.AnswerMalformed:
			s.WithAnswer += c.Count
		}
	}
	return s
}

// run is one homogeneous stretch of a small allocation stream: rcodes,
// countries, and the flag cell a split assigns it to.
type run struct {
	n       uint64
	cell    uint8
	rcode   dnswire.Rcode
	country string
}

// splitStream partitions an ordered run stream into len(cells) consecutive
// segments whose sizes are the cell capacities, splitting runs at
// boundaries and marking each piece with its cell index. The total run
// length must equal the total capacity.
func splitStream(cells []uint64, runs []run) ([]run, error) {
	out := make([]run, 0, len(runs)+len(cells))
	ri := 0
	var used uint64 // consumed from runs[ri]
	for ci, capacity := range cells {
		for need := capacity; need > 0; {
			if ri >= len(runs) {
				return nil, fmt.Errorf("population: stream underflow at cell %d (need %d more)", ci, need)
			}
			seg := runs[ri]
			seg.n = min(seg.n-used, need)
			seg.cell = uint8(ci)
			out = append(out, seg)
			need -= seg.n
			used += seg.n
			if used == runs[ri].n {
				ri++
				used = 0
			}
		}
	}
	if ri != len(runs) || used != 0 {
		return nil, fmt.Errorf("population: stream overflow (%d runs unconsumed)", len(runs)-ri)
	}
	return out, nil
}

// fillByCapacity distributes amount across cells with the given remaining
// capacities, proportionally (largest remainder), never exceeding any
// capacity; overflow from clamping is pushed to cells with headroom in
// index order. The capacities are decremented in place.
func fillByCapacity(capacity []uint64, amount uint64) ([]uint64, error) {
	var totalCap uint64
	for _, c := range capacity {
		totalCap += c
	}
	if amount > totalCap {
		return nil, fmt.Errorf("population: fill amount %d exceeds capacity %d", amount, totalCap)
	}
	if amount == 0 {
		return make([]uint64, len(capacity)), nil
	}
	alloc, err := dist.LargestRemainder(capacity, amount)
	if err != nil {
		return nil, err
	}
	// Clamp and redistribute (LR can exceed a cell by rounding).
	var overflow uint64
	for i := range alloc {
		if alloc[i] > capacity[i] {
			overflow += alloc[i] - capacity[i]
			alloc[i] = capacity[i]
		}
	}
	for i := range alloc {
		if overflow == 0 {
			break
		}
		if room := capacity[i] - alloc[i]; room > 0 {
			take := room
			if take > overflow {
				take = overflow
			}
			alloc[i] += take
			overflow -= take
		}
	}
	if overflow != 0 {
		return nil, fmt.Errorf("population: fill redistribution failed")
	}
	for i := range capacity {
		capacity[i] -= alloc[i]
	}
	return alloc, nil
}
