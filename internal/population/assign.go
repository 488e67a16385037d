package population

import (
	"fmt"

	"openresolver/internal/geo"
	"openresolver/internal/ipv4"
	"openresolver/internal/scan"
)

// Assigner hands out source addresses for resolvers, guaranteeing that
// every assigned address lies in the scan universe (so the prober will
// visit it) and is unique across the whole population.
//
// Country-pinned cohorts (the malicious resolvers with a geolocation
// target) draw addresses from the geo registry's blocks, walking each
// block's coset members in address order. Those addresses are reserved up
// front, so the unpinned cohorts — assigned through a stride walk over the
// universe's permutation positions, which is itself collision-free — can
// simply skip them.
//
// Assignment is deterministic in (universe, registry, population order), so
// the synthetic and simulation modes agree without storing millions of
// addresses: only the country reservations (tens of thousands at full
// scale) are materialized.
type Assigner struct {
	u   *scan.Universe
	reg *geo.Registry

	// avoid holds infrastructure plus all country-reserved addresses; the
	// stride walk skips them. The walk itself is a bijection over
	// universe positions, so unpinned assignments never self-collide.
	avoid map[ipv4.Addr]bool
	// avoid16 marks every /16 prefix that holds at least one avoid entry.
	// Most walked addresses fall in an unmarked prefix, which settles the
	// check with one bit test instead of a map lookup. NewAssigner builds
	// it once; forks share it read-only.
	avoid16 *prefixSet

	pos    uint64
	stride uint64
	issued uint64

	// reserved holds each country's pre-generated address list and a
	// cursor into it.
	reserved map[string][]ipv4.Addr
	taken    map[string]int
}

// NewAssigner builds an assigner for pop's cohorts. infra lists addresses
// that must never be assigned (prober, root, TLD, authoritative server).
func NewAssigner(u *scan.Universe, reg *geo.Registry, pop *Population, infra ...ipv4.Addr) (*Assigner, error) {
	a := &Assigner{
		u:     u,
		reg:   reg,
		avoid: make(map[ipv4.Addr]bool, len(infra)),
		// A large odd stride decorrelates assignment order from probe
		// order while remaining a bijection over the 2^k index ring.
		stride:   2654435761,
		reserved: make(map[string][]ipv4.Addr),
		taken:    make(map[string]int),
	}
	for _, ip := range infra {
		a.avoid[ip] = true
	}
	// Reserve country-pinned addresses up front, in cohort order.
	need := make(map[string]uint64)
	var order []string
	for _, c := range pop.Cohorts {
		if c.Country == "" {
			continue
		}
		if _, seen := need[c.Country]; !seen {
			order = append(order, c.Country)
		}
		need[c.Country] += c.Count
	}
	for _, country := range order {
		addrs, err := a.reserveCountry(country, need[country])
		if err != nil {
			return nil, err
		}
		a.reserved[country] = addrs
	}
	a.avoid16 = new(prefixSet)
	for addr := range a.avoid {
		a.avoid16.add(addr)
	}
	return a, nil
}

// prefixSet is a bitmap over the 2^16 /16 prefixes of the IPv4 space.
type prefixSet [1 << 10]uint64

func (s *prefixSet) add(addr ipv4.Addr) {
	p := uint32(addr) >> 16
	s[p>>6] |= 1 << (p & 63)
}

func (s *prefixSet) has(addr ipv4.Addr) bool {
	p := uint32(addr) >> 16
	return s[p>>6]&(1<<(p&63)) != 0
}

// avoided reports whether the stride walk must skip addr.
func (a *Assigner) avoided(addr ipv4.Addr) bool {
	return a.avoid16.has(addr) && a.avoid[addr]
}

// reserveCountry walks the country's blocks collecting n coset members.
func (a *Assigner) reserveCountry(country string, n uint64) ([]ipv4.Addr, error) {
	blocks := a.reg.CountryBlocks(country)
	if len(blocks) == 0 {
		return nil, fmt.Errorf("population: no geo allocation for %q", country)
	}
	step := uint64(1) << a.u.SampleShift()
	residue := uint64(residueOf(a.u))
	out := make([]ipv4.Addr, 0, n)
	for _, alloc := range blocks {
		b := alloc.Block
		lo := uint64(b.First())
		first := lo + (residue-lo)%step
		for cur := first; cur <= uint64(b.Last()); cur += step {
			addr := ipv4.Addr(cur)
			if a.avoid[addr] || !a.u.Contains(addr) {
				continue
			}
			a.avoid[addr] = true
			out = append(out, addr)
			if uint64(len(out)) == n {
				return out, nil
			}
		}
	}
	return nil, fmt.Errorf("population: country %q has only %d/%d coset addresses", country, len(out), n)
}

// Fork returns an assigner with independent cursors over the same
// assignment sequence. The universe, registry, avoid set, its prefix bitmap
// and the per-country reservations are shared: NewAssigner is the only
// writer of those, so forks may draw addresses concurrently with each other
// and the parent as long as each assigner is used by a single goroutine.
//
// Combined with Advance*, forks let a shard start exactly where the serial
// walk would be after the preceding shards' draws: fork a running cursor at
// each shard start, then draw or advance the cursor past that shard.
func (a *Assigner) Fork() *Assigner {
	taken := make(map[string]int, len(a.taken))
	for k, v := range a.taken {
		taken[k] = v
	}
	return &Assigner{
		u: a.u, reg: a.reg, avoid: a.avoid, avoid16: a.avoid16,
		pos: a.pos, stride: a.stride, issued: a.issued,
		reserved: a.reserved, taken: taken,
	}
}

// AdvanceUnpinned consumes and discards the next n unconstrained
// assignments, leaving the cursor exactly where n successful Next("")
// calls would. It is a replay, not arithmetic: every visited position is
// still permuted and tested against the exclusions and the avoid set, so a
// skipped draw costs as much as a drawn one. The synthetic engine's cursor
// chain draws each shard's addresses straight from its running cursor and
// calls this only to walk past shards it does not draw: those restored
// from a checkpoint, and those requested out of order. perfbench also times
// it per draw.
func (a *Assigner) AdvanceUnpinned(n uint64) error {
	for i := uint64(0); i < n; i++ {
		if _, err := a.nextUnpinned(); err != nil {
			return err
		}
	}
	return nil
}

// AdvanceCountry consumes and discards the next n reserved addresses of
// country. Country reservations are materialized lists, so this is O(1).
func (a *Assigner) AdvanceCountry(country string, n uint64) error {
	list := a.reserved[country]
	i := a.taken[country]
	if uint64(len(list)-i) < n {
		return fmt.Errorf("population: country %q reservation exhausted", country)
	}
	a.taken[country] = i + int(n)
	return nil
}

// Next returns the next source address for a resolver of the given cohort
// country ("" = unconstrained).
func (a *Assigner) Next(country string) (ipv4.Addr, error) {
	if country != "" {
		list := a.reserved[country]
		i := a.taken[country]
		if i >= len(list) {
			return 0, fmt.Errorf("population: country %q reservation exhausted", country)
		}
		a.taken[country] = i + 1
		return list[i], nil
	}
	return a.nextUnpinned()
}

// nextUnpinned advances the stride walk to the next eligible address that
// is not avoided.
func (a *Assigner) nextUnpinned() (ipv4.Addr, error) {
	n := a.u.Indexes()
	if a.issued >= n {
		return 0, fmt.Errorf("population: universe exhausted")
	}
	for a.issued < n {
		idx := a.pos % n
		a.pos += a.stride
		a.issued++
		addr, ok := a.u.At(idx)
		if !ok || a.avoided(addr) {
			continue
		}
		return addr, nil
	}
	return 0, fmt.Errorf("population: universe exhausted")
}

// residueOf recovers the universe's coset residue from any member address.
func residueOf(u *scan.Universe) uint32 {
	addr, _ := u.At(0)
	return uint32(addr) & (1<<u.SampleShift() - 1)
}
