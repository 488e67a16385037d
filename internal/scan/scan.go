// Package scan implements the address-generation core of an Internet-wide
// scanner in the style of ZMap (Durumeric et al., USENIX Security 2013),
// which the paper modified for its probing system.
//
// ZMap iterates a cyclic permutation of the IPv4 space so that probes arrive
// at any given network in pseudorandom order (spreading load) while still
// covering every address exactly once, statelessly. We obtain the same
// properties with a keyed Feistel permutation over the index space: it is a
// bijection, needs no per-address state, and any position is addressable in
// O(1) — which additionally lets the population compiler place simulated
// resolvers at addresses the scanner is guaranteed to visit.
//
// For memory-bounded simulation runs the Universe supports systematic
// sampling: with SampleShift s it scans exactly the coset
// {ip : ip ≡ residue (mod 2^s)}, a uniform 1/2^s sample of the IPv4 space,
// still in pseudorandom order and still honoring the Table I exclusions.
package scan

import (
	"fmt"
	"math/bits"

	"openresolver/internal/ipv4"
)

// Permutation is a keyed bijection on [0, 2^Bits) built from a balanced
// Feistel network with cycle walking. It is deterministic in (bits, seed).
type Permutation struct {
	bits   uint8
	half   uint8  // bits per Feistel half (ceil(bits/2))
	mask   uint64 // 2^bits - 1
	hmask  uint64 // 2^half - 1
	keys   [feistelRounds]uint64
	domain uint64 // 2^bits
}

const feistelRounds = 6

// NewPermutation returns the permutation on [0, 2^bits) keyed by seed.
// bits must be in [1, 32].
func NewPermutation(bits uint8, seed uint64) (*Permutation, error) {
	if bits < 1 || bits > 32 {
		return nil, fmt.Errorf("scan: bits %d out of range [1,32]", bits)
	}
	p := &Permutation{
		bits:   bits,
		half:   (bits + 1) / 2,
		mask:   1<<bits - 1,
		domain: 1 << bits,
	}
	p.hmask = 1<<p.half - 1
	s := seed
	for i := range p.keys {
		s = splitmix64(s)
		p.keys[i] = s
	}
	return p, nil
}

// splitmix64 is the SplitMix64 finalizer; a fast, well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Size returns the domain size 2^bits.
func (p *Permutation) Size() uint64 { return p.domain }

// feistel applies the Feistel rounds on the doubled domain [0, 2^(2*half)).
// The rounds are unrolled with the struct fields hoisted into locals: this
// runs once per scanned candidate (hundreds of millions of calls at full
// scale), and the unrolled form keeps every operand in registers instead of
// re-loading through the receiver each iteration.
func (p *Permutation) feistel(x uint64) uint64 {
	half, hm := p.half, p.hmask
	k := &p.keys
	l := x >> half & hm
	r := x & hm
	l, r = r, l^(splitmix64(r^k[0])&hm)
	l, r = r, l^(splitmix64(r^k[1])&hm)
	l, r = r, l^(splitmix64(r^k[2])&hm)
	l, r = r, l^(splitmix64(r^k[3])&hm)
	l, r = r, l^(splitmix64(r^k[4])&hm)
	l, r = r, l^(splitmix64(r^k[5])&hm)
	return l<<half | r
}

// The unroll above covers exactly feistelRounds rounds.
var _ = [1]struct{}{}[feistelRounds-6]

// Apply maps x through the permutation. x must be < Size(); values outside
// the domain are reduced modulo Size() to keep the function total.
func (p *Permutation) Apply(x uint64) uint64 {
	x &= p.mask
	// Cycle-walk: the Feistel network permutes [0, 2^(2*half)), which may be
	// up to twice the domain; re-apply until the value lands inside.
	// Expected iterations < 2 since at least half the larger domain maps in.
	for {
		x = p.feistel(x)
		if x <= p.mask {
			return x
		}
	}
}

// apply4 is Apply on four values at once. The Feistel rounds of the four
// lanes are interleaved, so their independent multiply chains overlap
// instead of running back to back; a lane whose first pass lands outside
// the domain finishes its cycle walk on its own.
func (p *Permutation) apply4(x *[4]uint64) {
	half, hm := p.half, p.hmask
	l0, r0 := x[0]>>half&hm, x[0]&hm
	l1, r1 := x[1]>>half&hm, x[1]&hm
	l2, r2 := x[2]>>half&hm, x[2]&hm
	l3, r3 := x[3]>>half&hm, x[3]&hm
	for _, k := range &p.keys {
		l0, r0 = r0, l0^(splitmix64(r0^k)&hm)
		l1, r1 = r1, l1^(splitmix64(r1^k)&hm)
		l2, r2 = r2, l2^(splitmix64(r2^k)&hm)
		l3, r3 = r3, l3^(splitmix64(r3^k)&hm)
	}
	x[0], x[1], x[2], x[3] = l0<<half|r0, l1<<half|r1, l2<<half|r2, l3<<half|r3
	for i := range x {
		for x[i] > p.mask {
			x[i] = p.feistel(x[i])
		}
	}
}

// invert is the inverse of Apply for y < Size(): the Feistel rounds are
// undone in reverse key order, and the cycle walk runs backwards — the
// first in-domain value on the inverse orbit is the preimage.
func (p *Permutation) invert(y uint64) uint64 {
	half, hm := p.half, p.hmask
	for {
		l, r := y>>half&hm, y&hm
		for i := feistelRounds - 1; i >= 0; i-- {
			l, r = r^(splitmix64(l^p.keys[i])&hm), l
		}
		if y = l<<half | r; y <= p.mask {
			return y
		}
	}
}

// Universe is the set of addresses one campaign scans: the sampling coset of
// the IPv4 space minus the exclusion blocklist, visited in the pseudorandom
// order of a keyed permutation.
type Universe struct {
	perm *Permutation
	// shift selects a 1/2^shift systematic sample; 0 scans everything.
	shift   uint8
	residue uint32
	excl    *ipv4.Blocklist
}

// NewUniverse builds a scan universe.
//   - seed keys the probe-order permutation;
//   - sampleShift picks the 1/2^sampleShift systematic sample (0 = full scan);
//   - excl is the exclusion blocklist (nil means no exclusions).
func NewUniverse(seed uint64, sampleShift uint8, excl *ipv4.Blocklist) (*Universe, error) {
	if sampleShift > 30 {
		return nil, fmt.Errorf("scan: sample shift %d too large", sampleShift)
	}
	perm, err := NewPermutation(32-sampleShift, seed)
	if err != nil {
		return nil, err
	}
	return &Universe{
		perm:  perm,
		shift: sampleShift,
		// The residue is derived from the seed so distinct campaigns sample
		// distinct cosets, but deterministically.
		residue: uint32(splitmix64(seed^0xC05E7) & (1<<sampleShift - 1)),
		excl:    excl,
	}, nil
}

// SampleShift returns the configured sampling shift.
func (u *Universe) SampleShift() uint8 { return u.shift }

// Indexes returns the number of candidate positions (coset size).
func (u *Universe) Indexes() uint64 { return u.perm.Size() }

// At returns the candidate address at permuted position idx, and whether it
// is eligible for probing (not excluded). idx must be < Indexes().
func (u *Universe) At(idx uint64) (ipv4.Addr, bool) {
	a := ipv4.Addr(uint32(u.perm.Apply(idx))<<u.shift | u.residue)
	if u.excl != nil && u.excl.Contains(a) {
		return a, false
	}
	return a, true
}

// At4 is At for the four positions idx, each < Indexes(): it writes each
// candidate address to addr and returns the eligible ones as a bit mask,
// bit k for idx[k]. The four permutations are evaluated together (apply4), which is what
// makes a walk that visits positions in groups of four cheaper per
// position than one At call each.
func (u *Universe) At4(idx *[4]uint64, addr *[4]ipv4.Addr) (eligible uint8) {
	x := *idx
	u.perm.apply4(&x)
	for k := range x {
		a := ipv4.Addr(uint32(x[k])<<u.shift | u.residue)
		addr[k] = a
		if u.excl == nil || !u.excl.Contains(a) {
			eligible |= 1 << k
		}
	}
	return eligible
}

// Position is the inverse of At: the probe-order position of addr, and
// false when addr is off the sampling coset or excluded — an address the
// scan never visits. For every eligible position idx, Position(At(idx)) is
// (idx, true). The sharded simulation uses it to place each resolver in
// the shard whose probe range will reach it.
func (u *Universe) Position(addr ipv4.Addr) (uint64, bool) {
	if !u.Contains(addr) {
		return 0, false
	}
	return u.perm.invert(uint64(uint32(addr) >> u.shift)), true
}

// Contains reports whether addr belongs to this universe (right coset
// residue and not excluded).
func (u *Universe) Contains(addr ipv4.Addr) bool {
	if uint32(addr)&(1<<u.shift-1) != u.residue {
		return false
	}
	return u.excl == nil || !u.excl.Contains(addr)
}

// AllowedCount returns the exact number of probe-eligible addresses in the
// universe, computed analytically from the exclusion intervals (no scan).
func (u *Universe) AllowedCount() uint64 {
	total := u.perm.Size()
	if u.excl == nil {
		return total
	}
	var excluded uint64
	step := uint64(1) << u.shift
	for i := 0; i < u.excl.Intervals(); i++ {
		los, his := u.excl.Interval(i)
		lo, hi := uint64(los), uint64(his)
		// First coset member >= lo.
		r := uint64(u.residue)
		first := lo + (r-lo)%step
		if first < lo { // wrapped (r < lo mod step)
			first += step
		}
		if first > hi {
			continue
		}
		excluded += (hi-first)/step + 1
	}
	return total - excluded
}

// Iterator walks a contiguous range of the universe's probe order.
//
// The walk evaluates its positions four at a time (Universe.At4) and hands
// the buffered addresses out in position order; a tail shorter than four
// positions is walked one At call each. The sequence is exactly the
// At-filtered one.
type Iterator struct {
	u        *Universe
	pos, end uint64 // next position not yet evaluated, and the bound
	buf      [4]ipv4.Addr
	// elig holds the eligible bits of buf not yet handed out; held counts
	// the buffered positions after the last one handed out, eligible or
	// not, for Remaining.
	elig uint8
	held uint8
}

// Iterate returns an iterator over the whole universe.
func (u *Universe) Iterate() *Iterator { return u.Range(0, u.perm.Size()) }

// Range returns an iterator over the contiguous position range [start, end)
// of the probe order — the partition shape of the sharded simulation, where
// each worker walks its own slice of the permutation serially and the
// slices concatenate to exactly one full Iterate() pass. Bounds are clamped
// to the universe size.
func (u *Universe) Range(start, end uint64) *Iterator {
	if end > u.perm.Size() {
		end = u.perm.Size()
	}
	if start > end {
		start = end
	}
	return &Iterator{u: u, pos: start, end: end}
}

// Next returns the next probe-eligible address. ok is false when the range
// is exhausted. Excluded candidates are skipped internally.
func (it *Iterator) Next() (addr ipv4.Addr, ok bool) {
	for {
		if it.elig != 0 {
			k := bits.TrailingZeros8(it.elig)
			it.elig &= it.elig - 1
			it.held = 3 - uint8(k)
			return it.buf[k], true
		}
		it.held = 0
		// Four lanes need pos+3 < end (pos never passes end); fewer
		// positions left take the one-lane tail.
		if it.end-it.pos < 4 {
			break
		}
		p := it.pos
		idx := [4]uint64{p, p + 1, p + 2, p + 3}
		it.elig = it.u.At4(&idx, &it.buf)
		it.pos += 4
	}
	for it.pos < it.end {
		a, eligible := it.u.At(it.pos)
		it.pos++
		if eligible {
			return a, true
		}
	}
	return 0, false
}
