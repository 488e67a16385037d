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
//
// The stride walk visits its positions in groups of four (Universe.At4):
// the universe holds 2^k positions with k ≥ 2, so a group never crosses
// the walk's end. The eligible addresses of the last group that have not
// been handed out yet — at most three — wait in held, so the addresses
// drawn, and the point where the universe runs out, are exactly those of
// a walk that visits one position at a time.
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

	// pos is the walk's next position before reduction modulo the
	// universe size, issued the number of positions visited; both move in
	// groups of four.
	pos    uint64
	stride uint64
	issued uint64
	// held[heldLo:heldHi] are the undrawn eligible addresses of the last
	// group, in walk order.
	held           [3]ipv4.Addr
	heldLo, heldHi uint8

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
		held: a.held, heldLo: a.heldLo, heldHi: a.heldHi,
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
	var discard [256]ipv4.Addr
	for n > 0 {
		k := min(n, uint64(len(discard)))
		if err := a.walk(discard[:k]); err != nil {
			return err
		}
		n -= k
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
	var one [1]ipv4.Addr
	err := a.Draw(country, one[:])
	return one[0], err
}

// Draw fills buf with the next len(buf) source addresses for resolvers of
// the given cohort country ("" = unconstrained): the addresses len(buf)
// Next(country) calls return, in one call.
func (a *Assigner) Draw(country string, buf []ipv4.Addr) error {
	if country == "" {
		return a.walk(buf)
	}
	list := a.reserved[country]
	i := a.taken[country]
	if len(list)-i < len(buf) {
		return fmt.Errorf("population: country %q reservation exhausted", country)
	}
	a.taken[country] = i + copy(buf, list[i:])
	return nil
}

// walk fills buf from the stride walk: the held addresses first, then
// group after group of four positions, each eligible address that is not
// avoided in walk order. The cursor stays in locals, and since the
// universe size is a power of two the reduction modulo it is a mask. On
// exhaustion buf is partly filled and the cursor is at the walk's end.
func (a *Assigner) walk(buf []ipv4.Addr) error {
	i := copy(buf, a.held[a.heldLo:a.heldHi])
	a.heldLo += uint8(i)
	if i == len(buf) {
		return nil
	}
	n := a.u.Indexes()
	mask, stride := n-1, a.stride
	pos, issued := a.pos, a.issued
	var idx [4]uint64
	var addr [4]ipv4.Addr
	held := 0
	for i < len(buf) {
		if issued >= n {
			a.pos, a.issued, a.heldLo, a.heldHi = pos, issued, 0, 0
			return fmt.Errorf("population: universe exhausted")
		}
		idx[0], idx[1], idx[2], idx[3] = pos&mask, (pos+stride)&mask, (pos+2*stride)&mask, (pos+3*stride)&mask
		pos += 4 * stride
		issued += 4
		ok := a.u.At4(&idx, &addr)
		for k, ad := range addr {
			if ok&(1<<k) == 0 || a.avoided(ad) {
				continue
			}
			if i < len(buf) {
				buf[i] = ad
				i++
			} else {
				a.held[held] = ad
				held++
			}
		}
	}
	a.pos, a.issued, a.heldLo, a.heldHi = pos, issued, 0, uint8(held)
	return nil
}

// residueOf recovers the universe's coset residue from any member address.
func residueOf(u *scan.Universe) uint32 {
	addr, _ := u.At(0)
	return uint32(addr) & (1<<u.SampleShift() - 1)
}
