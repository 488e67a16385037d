package population

import (
	"errors"
	"fmt"
	"slices"

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
//
// An Assigner holds no cursor: NewAssigner is the only writer of its
// fields. Whether step k of the stride walk yields an address depends on k
// alone (AppendSteps), and the n-th pinned draw of a country is
// Reserved(country)[n], so any number of goroutines may use one assigner.
// Assign replays the whole population in cohort order.
type Assigner struct {
	u   *scan.Universe
	reg *geo.Registry

	// avoid holds infrastructure plus all country-reserved addresses; the
	// stride walk skips them. The walk itself is a bijection over
	// universe positions, so unpinned assignments never self-collide.
	avoid map[ipv4.Addr]bool
	// avoid16 marks every /16 prefix that holds at least one avoid entry.
	// Most walked addresses fall in an unmarked prefix, which settles the
	// check with one bit test instead of a map lookup.
	avoid16 *prefixSet

	// reserved holds each country's pre-generated address list.
	reserved map[string][]ipv4.Addr
}

// stride is the stride walk's step between positions. A large odd stride
// decorrelates assignment order from probe order while remaining a
// bijection over the 2^k index ring.
const stride = 2654435761

// NewAssigner builds an assigner for pop's cohorts. infra lists addresses
// that must never be assigned (prober, root, TLD, authoritative server).
func NewAssigner(u *scan.Universe, reg *geo.Registry, pop *Population, infra ...ipv4.Addr) (*Assigner, error) {
	a := &Assigner{
		u:        u,
		reg:      reg,
		avoid:    make(map[ipv4.Addr]bool, len(infra)),
		reserved: make(map[string][]ipv4.Addr),
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

// Fork returns a copy of a.
//
// Deprecated: an Assigner has no cursor, so a copy draws nothing a itself
// would not. Fork is kept only for perfbench's advance_ns_per_draw and goes
// with AdvanceUnpinned in ROADMAP 10.4.
func (a *Assigner) Fork() *Assigner {
	f := *a
	return &f
}

// AdvanceUnpinned walks the first n unpinned assignments, the addresses a
// population of one unpinned cohort of n is given, and discards them.
//
// Deprecated: it is Assign over that cohort, kept only for perfbench's
// advance_ns_per_draw; ROADMAP 10.4 moves that metric to AppendSteps and
// deletes AdvanceUnpinned and Fork.
func (a *Assigner) AdvanceUnpinned(n uint64) error {
	pop := &Population{Cohorts: []Cohort{{Count: n}}}
	return a.Assign(pop, func(int, ipv4.Addr) error { return nil })
}

// Reserved returns country's reserved addresses in the order Assign hands
// them to the country's cohorts: the n-th pinned draw of country is
// Reserved(country)[n]. The list is shared; callers must not modify it.
func (a *Assigner) Reserved(country string) []ipv4.Addr { return a.reserved[country] }

// assignChunk is how many walk steps Assign draws at a time, a multiple of 4.
const assignChunk = 1 << 10

// Assign calls fn with every resolver of pop, cohort by cohort, in order:
// the cohort's index and the resolver's source address. Unpinned cohorts
// take the stride walk's draws in walk order (AppendSteps from step 0),
// pinned ones their country's reservation in order (Reserved). When the
// walk or a reservation runs out, Assign has called fn for every address
// before it and returns ErrUniverseExhausted or a reservation-exhausted
// error. It stops at the first error fn returns and returns it.
func (a *Assigner) Assign(pop *Population, fn func(cohort int, addr ipv4.Addr) error) error {
	buf := make([]ipv4.Addr, 0, assignChunk)
	var drawn []ipv4.Addr // the walk's draws not yet assigned, a tail of buf
	step := uint64(0)
	taken := make(map[string]int)
	for ci, c := range pop.Cohorts {
		for n := c.Count; n > 0; {
			var from []ipv4.Addr
			if c.Country != "" {
				if from = a.reserved[c.Country][taken[c.Country]:]; len(from) == 0 {
					return fmt.Errorf("population: country %q reservation exhausted", c.Country)
				}
			} else {
				for len(drawn) == 0 {
					if step == a.Steps() {
						return ErrUniverseExhausted
					}
					hi := min(step+assignChunk, a.Steps())
					buf = a.AppendSteps(buf[:0], step, hi)
					drawn, step = buf, hi
				}
				from = drawn
			}
			k := min(n, uint64(len(from)))
			for _, addr := range from[:k] {
				if err := fn(ci, addr); err != nil {
					return err
				}
			}
			n -= k
			if c.Country != "" {
				taken[c.Country] += int(k)
			} else {
				drawn = drawn[k:]
			}
		}
	}
	return nil
}

// Steps returns the length of the stride walk: the number of positions it
// visits before the universe runs out, a power of two of at least 4.
func (a *Assigner) Steps() uint64 { return a.u.Indexes() }

// AppendSteps appends to dst the addresses steps [lo, hi) of the stride
// walk draw, in walk order: each eligible address that is not avoided.
// Over consecutive ranges from step 0 the appended addresses are those
// Assign gives the unpinned cohorts, up to exhaustion. lo and hi must be
// multiples of 4 with lo ≤ hi ≤ Steps().
func (a *Assigner) AppendSteps(dst []ipv4.Addr, lo, hi uint64) []ipv4.Addr {
	n := len(dst)
	dst = slices.Grow(dst, int(hi-lo))
	// Every visited address is written at out[i], and i moves past the
	// ones drawn, so there is no branch on eligibility; after the group at
	// step k, i ≤ k+4-lo, so the writes stay inside out.
	out, i := dst[n:n+int(hi-lo)], 0
	var addr [4]ipv4.Addr
	for k := lo; k < hi; k += 4 {
		ok := a.group(k*stride, &addr)
		for j, ad := range addr {
			out[i] = ad
			i += int(ok >> j & 1)
		}
	}
	return dst[:n+i]
}

// group visits the four positions pos, pos+stride, pos+2·stride and
// pos+3·stride (modulo the universe size): it writes their addresses to
// addr and returns the eligible ones that are not avoided as a bit mask.
func (a *Assigner) group(pos uint64, addr *[4]ipv4.Addr) uint8 {
	mask := a.u.Indexes() - 1
	idx := [4]uint64{pos & mask, (pos + stride) & mask, (pos + 2*stride) & mask, (pos + 3*stride) & mask}
	ok := a.u.At4(&idx, addr)
	for k, ad := range addr {
		if ok&(1<<k) != 0 && a.avoided(ad) {
			ok &^= 1 << k
		}
	}
	return ok
}

// ErrUniverseExhausted reports an unpinned draw past the end of the stride
// walk: the scan universe holds fewer eligible addresses than the
// population's unpinned cohorts.
var ErrUniverseExhausted = errors.New("population: universe exhausted")

// residueOf recovers the universe's coset residue from any member address.
func residueOf(u *scan.Universe) uint32 {
	addr, _ := u.At(0)
	return uint32(addr) & (1<<u.SampleShift() - 1)
}
