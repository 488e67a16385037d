// Package ipv4 provides IPv4 address and CIDR-block arithmetic for the
// Internet-wide scanner: address parsing/formatting, block membership, and
// the RFC-reserved exclusion list of the paper's Table I.
//
// Addresses are represented as uint32 in host order throughout the
// reproduction — the scanner iterates billions of them, so they must be
// cheap scalar values rather than heap-allocated net.IP slices.
package ipv4

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Addr is an IPv4 address as a big-endian uint32 (192.168.0.1 = 0xC0A80001).
type Addr uint32

// String formats the address in dotted-quad notation.
func (a Addr) String() string {
	var b [15]byte
	buf := strconv.AppendUint(b[:0], uint64(a>>24), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(a>>16&0xFF), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(a>>8&0xFF), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(a&0xFF), 10)
	return string(buf)
}

// ParseAddr parses dotted-quad notation. It rejects anything but exactly
// four decimal octets (no shorthand, no leading-zero octal forms).
func ParseAddr(s string) (Addr, error) {
	var a uint32
	for i := 0; i < 4; i++ {
		part := s
		if i < 3 {
			dot := strings.IndexByte(s, '.')
			if dot < 0 {
				return 0, fmt.Errorf("ipv4: invalid address %q", s)
			}
			part, s = s[:dot], s[dot+1:]
		}
		if len(part) == 0 || len(part) > 3 || (len(part) > 1 && part[0] == '0') {
			return 0, fmt.Errorf("ipv4: invalid octet %q", part)
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 || n > 255 {
			return 0, fmt.Errorf("ipv4: invalid octet %q", part)
		}
		a = a<<8 | uint32(n)
	}
	return Addr(a), nil
}

// MustParseAddr is ParseAddr for trusted constants; it panics on error.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Block is a CIDR block.
type Block struct {
	Base Addr
	// Bits is the prefix length (0-32).
	Bits uint8
}

// ParseBlock parses "a.b.c.d/n" CIDR notation. The base address is masked to
// the prefix, so "10.1.2.3/8" yields 10.0.0.0/8.
func ParseBlock(s string) (Block, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Block{}, fmt.Errorf("ipv4: missing prefix length in %q", s)
	}
	base, err := ParseAddr(s[:slash])
	if err != nil {
		return Block{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Block{}, fmt.Errorf("ipv4: invalid prefix length in %q", s)
	}
	b := Block{Base: base, Bits: uint8(bits)}
	b.Base &= b.mask()
	return b, nil
}

// MustParseBlock is ParseBlock for trusted constants; it panics on error.
func MustParseBlock(s string) Block {
	b, err := ParseBlock(s)
	if err != nil {
		panic(err)
	}
	return b
}

func (b Block) mask() Addr {
	if b.Bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - b.Bits))
}

// Contains reports whether a falls inside the block.
func (b Block) Contains(a Addr) bool {
	return a&b.mask() == b.Base
}

// Size returns the number of addresses covered by the block.
func (b Block) Size() uint64 {
	return 1 << (32 - b.Bits)
}

// First returns the lowest address in the block.
func (b Block) First() Addr { return b.Base }

// Last returns the highest address in the block.
func (b Block) Last() Addr { return b.Base | ^b.mask() }

// String formats the block in CIDR notation.
func (b Block) String() string {
	return fmt.Sprintf("%s/%d", b.Base, b.Bits)
}

// Space is the size of the full IPv4 address space.
const Space uint64 = 1 << 32

// Blocklist is a set of CIDR blocks with O(log n) membership testing over
// the merged, non-overlapping interval representation. The scanner consults
// it once per candidate address, so it must be allocation-free.
type Blocklist struct {
	// starts and ends are parallel sorted slices of merged [start,end]
	// address intervals (inclusive).
	starts []Addr
	ends   []Addr
	blocks []Block
	// oct classifies every /8 against the merged intervals so the
	// per-candidate scanner check usually resolves with one table load:
	// reserved space clusters into whole /8s (Table I), leaving most
	// candidates in fully-clear octets.
	oct [256]uint8
}

// Per-/8 coverage classes for Blocklist.oct.
const (
	octClear uint8 = iota // no interval touches the /8: Contains is false
	octFull               // one interval covers the whole /8: Contains is true
	octMixed              // partial coverage: fall through to binary search
)

// NewBlocklist builds a blocklist from blocks, merging overlaps.
func NewBlocklist(blocks ...Block) *Blocklist {
	bl := &Blocklist{blocks: append([]Block(nil), blocks...)}
	type iv struct{ lo, hi Addr }
	ivs := make([]iv, 0, len(blocks))
	for _, b := range blocks {
		ivs = append(ivs, iv{b.First(), b.Last()})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	for _, v := range ivs {
		n := len(bl.ends)
		if n > 0 && uint64(v.lo) <= uint64(bl.ends[n-1])+1 {
			if v.hi > bl.ends[n-1] {
				bl.ends[n-1] = v.hi
			}
			continue
		}
		bl.starts = append(bl.starts, v.lo)
		bl.ends = append(bl.ends, v.hi)
	}
	for i := range bl.starts {
		lo, hi := bl.starts[i], bl.ends[i]
		for o := uint32(lo >> 24); o <= uint32(hi>>24); o++ {
			oLo, oHi := Addr(o<<24), Addr(o<<24|0xFFFFFF)
			if lo <= oLo && hi >= oHi {
				// Intervals are disjoint, so no other one touches this /8.
				bl.oct[o] = octFull
			} else {
				bl.oct[o] = octMixed
			}
		}
	}
	return bl
}

// Contains reports whether a is covered by any block in the list.
func (bl *Blocklist) Contains(a Addr) bool {
	switch bl.oct[a>>24] {
	case octClear:
		return false
	case octFull:
		return true
	}
	// Mixed /8: find the first interval with start > a, then check its
	// predecessor. Hand-rolled — sort.Search's closure indirection is
	// measurable at one call per scanned candidate.
	lo, hi := 0, len(bl.starts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bl.starts[m] <= a {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo > 0 && a <= bl.ends[lo-1]
}

// Size returns the number of distinct addresses covered.
func (bl *Blocklist) Size() uint64 {
	var n uint64
	for i := range bl.starts {
		n += uint64(bl.ends[i]) - uint64(bl.starts[i]) + 1
	}
	return n
}

// Intervals returns the number of merged, disjoint address intervals.
func (bl *Blocklist) Intervals() int { return len(bl.starts) }

// Interval returns the i-th merged interval as an inclusive [lo, hi] range.
func (bl *Blocklist) Interval(i int) (lo, hi Addr) {
	return bl.starts[i], bl.ends[i]
}

// ReservedBlock is one row of the paper's Table I: an address block excluded
// from probing together with the RFC that reserves it.
type ReservedBlock struct {
	Block Block
	RFC   string
}

// ReservedBlocks is the exclusion list of Table I, in table order.
// Note that 255.255.255.255/32 is contained in 240.0.0.0/4; the paper's
// total of 575,931,649 counts it twice (see paperdata for the discrepancy
// accounting). The merged Blocklist deduplicates it.
var ReservedBlocks = []ReservedBlock{
	{MustParseBlock("0.0.0.0/8"), "RFC1122"},
	{MustParseBlock("10.0.0.0/8"), "RFC1918"},
	{MustParseBlock("100.64.0.0/10"), "RFC6598"},
	{MustParseBlock("127.0.0.0/8"), "RFC1122"},
	{MustParseBlock("169.254.0.0/16"), "RFC3927"},
	{MustParseBlock("172.16.0.0/12"), "RFC1918"},
	{MustParseBlock("192.0.0.0/24"), "RFC6890"},
	{MustParseBlock("192.0.2.0/24"), "RFC5737"},
	{MustParseBlock("192.88.99.0/24"), "RFC3068"},
	{MustParseBlock("192.168.0.0/16"), "RFC1918"},
	{MustParseBlock("198.18.0.0/15"), "RFC2544"},
	{MustParseBlock("198.51.100.0/24"), "RFC5737"},
	{MustParseBlock("203.0.113.0/24"), "RFC5737"},
	{MustParseBlock("224.0.0.0/4"), "RFC5771"},
	{MustParseBlock("240.0.0.0/4"), "RFC1112"},
	{MustParseBlock("255.255.255.255/32"), "RFC919"},
}

// NewReservedBlocklist returns a Blocklist covering Table I.
func NewReservedBlocklist() *Blocklist {
	blocks := make([]Block, len(ReservedBlocks))
	for i, r := range ReservedBlocks {
		blocks[i] = r.Block
	}
	return NewBlocklist(blocks...)
}

// PrivateBlocks are the RFC 1918 private-use blocks, used by the analysis to
// classify incorrect answers that point into private networks (paper §V).
var PrivateBlocks = []Block{
	MustParseBlock("10.0.0.0/8"),
	MustParseBlock("172.16.0.0/12"),
	MustParseBlock("192.168.0.0/16"),
}

// IsPrivate reports whether a lies in RFC 1918 private space.
func IsPrivate(a Addr) bool {
	for _, b := range PrivateBlocks {
		if b.Contains(a) {
			return true
		}
	}
	return false
}
