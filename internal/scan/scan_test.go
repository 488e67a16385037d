package scan

import (
	"testing"
	"testing/quick"

	"openresolver/internal/ipv4"
)

func TestPermutationIsBijective(t *testing.T) {
	for _, bits := range []uint8{1, 2, 3, 7, 8, 13, 16, 20} {
		p, err := NewPermutation(bits, 0xDEADBEEF)
		if err != nil {
			t.Fatalf("bits %d: %v", bits, err)
		}
		n := p.Size()
		if n > 1<<20 {
			continue
		}
		seen := make([]bool, n)
		for i := uint64(0); i < n; i++ {
			y := p.Apply(i)
			if y >= n {
				t.Fatalf("bits %d: Apply(%d) = %d out of domain", bits, i, y)
			}
			if seen[y] {
				t.Fatalf("bits %d: Apply(%d) = %d repeated", bits, i, y)
			}
			seen[y] = true
		}
	}
}

func TestPermutationDeterministicAndKeyed(t *testing.T) {
	p1, _ := NewPermutation(24, 1)
	p2, _ := NewPermutation(24, 1)
	p3, _ := NewPermutation(24, 2)
	same, diff := 0, 0
	for i := uint64(0); i < 1000; i++ {
		if p1.Apply(i) != p2.Apply(i) {
			t.Fatalf("same seed diverged at %d", i)
		}
		if p1.Apply(i) == p3.Apply(i) {
			same++
		} else {
			diff++
		}
	}
	if diff < 990 {
		t.Errorf("different seeds agree on %d/1000 inputs; permutation barely keyed", same)
	}
}

func TestPermutationScrambles(t *testing.T) {
	// A pseudorandom probe order must not visit long runs of adjacent
	// addresses: check consecutive outputs are rarely adjacent.
	p, _ := NewPermutation(32, 42)
	adjacent := 0
	var prev uint64
	for i := uint64(0); i < 10000; i++ {
		y := p.Apply(i)
		if i > 0 && (y == prev+1 || prev == y+1) {
			adjacent++
		}
		prev = y
	}
	if adjacent > 2 {
		t.Errorf("%d adjacent consecutive outputs; order not scrambled", adjacent)
	}
}

func TestPermutationBitsValidation(t *testing.T) {
	if _, err := NewPermutation(0, 1); err == nil {
		t.Error("bits=0 accepted")
	}
	if _, err := NewPermutation(33, 1); err == nil {
		t.Error("bits=33 accepted")
	}
}

func TestUniverseFullScanCoverage(t *testing.T) {
	// A tiny 12-bit-equivalent universe: shift 20 leaves 4096 indexes.
	u, err := NewUniverse(7, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u.Indexes() != 4096 {
		t.Fatalf("Indexes = %d", u.Indexes())
	}
	seen := make(map[ipv4.Addr]bool, 4096)
	it := u.Iterate()
	for {
		a, ok := it.Next()
		if !ok {
			break
		}
		if seen[a] {
			t.Fatalf("address %v visited twice", a)
		}
		if !u.Contains(a) {
			t.Fatalf("visited %v outside universe", a)
		}
		seen[a] = true
	}
	if len(seen) != 4096 {
		t.Fatalf("visited %d addresses, want 4096", len(seen))
	}
}

func TestUniverseExclusions(t *testing.T) {
	excl := ipv4.NewReservedBlocklist()
	u, err := NewUniverse(99, 20, excl)
	if err != nil {
		t.Fatal(err)
	}
	var visited uint64
	it := u.Iterate()
	for {
		a, ok := it.Next()
		if !ok {
			break
		}
		if excl.Contains(a) {
			t.Fatalf("excluded address %v probed", a)
		}
		visited++
	}
	if want := u.AllowedCount(); visited != want {
		t.Fatalf("visited %d, AllowedCount says %d", visited, want)
	}
	// The sample must be a faithful 1/2^20 slice: allowed fraction within
	// 2% of the full-space fraction 3,702,258,432/2^32 ≈ 0.862.
	frac := float64(visited) / float64(u.Indexes())
	if frac < 0.84 || frac < 0 || frac > 0.89 {
		t.Errorf("allowed fraction %.4f implausible", frac)
	}
}

func TestAllowedCountFullSpace(t *testing.T) {
	// At shift 0 the analytic count must equal the exact complement of the
	// reserved union: the paper's 2018 Q1.
	u, err := NewUniverse(1, 0, ipv4.NewReservedBlocklist())
	if err != nil {
		t.Fatal(err)
	}
	if got := u.AllowedCount(); got != 3702258432 {
		t.Errorf("AllowedCount = %d, want 3702258432", got)
	}
}

func TestPropertyAllowedCountMatchesScan(t *testing.T) {
	// For random small blocklists, analytic AllowedCount must equal a
	// brute-force scan of the universe.
	f := func(seed uint64, baseA, baseB uint32) bool {
		excl := ipv4.NewBlocklist(
			ipv4.Block{Base: ipv4.Addr(baseA) & 0xFFFFF000, Bits: 20},
			ipv4.Block{Base: ipv4.Addr(baseB) & 0xFFFF0000, Bits: 14},
		)
		u, err := NewUniverse(seed, 22, excl) // 1024 indexes
		if err != nil {
			return false
		}
		var n uint64
		it := u.Iterate()
		for {
			_, ok := it.Next()
			if !ok {
				break
			}
			n++
		}
		return n == u.AllowedCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIteratorRemaining(t *testing.T) {
	u, _ := NewUniverse(5, 24, nil) // 256 indexes
	it := u.Iterate()
	if it.Remaining() != 256 {
		t.Errorf("Remaining = %d", it.Remaining())
	}
	it.Next()
	if it.Remaining() != 255 {
		t.Errorf("Remaining after one = %d", it.Remaining())
	}
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if it.Remaining() != 0 {
		t.Errorf("Remaining at end = %d", it.Remaining())
	}
}

func TestUniverseResidueConsistency(t *testing.T) {
	u, _ := NewUniverse(123, 10, nil)
	it := u.Iterate()
	a1, _ := it.Next()
	a2, _ := it.Next()
	if uint32(a1)&1023 != uint32(a2)&1023 {
		t.Error("coset residue differs between probes")
	}
	if u.Contains(a1 + 1) {
		t.Error("address outside coset reported as contained")
	}
}

func TestNewUniverseValidation(t *testing.T) {
	if _, err := NewUniverse(1, 31, nil); err == nil {
		t.Error("shift 31 accepted")
	}
}

func BenchmarkPermutationApply(b *testing.B) {
	p, _ := NewPermutation(32, 1)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += p.Apply(uint64(i))
	}
	_ = sink
}

func BenchmarkUniverseIterate(b *testing.B) {
	u, _ := NewUniverse(1, 0, ipv4.NewReservedBlocklist())
	it := u.Iterate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := it.Next(); !ok {
			it = u.Iterate()
		}
	}
}

func TestProbeOrderSpreadsAcrossSpace(t *testing.T) {
	// ZMap's motivation for the permutation: early probes must spread over
	// the whole space rather than hammer one network. Check that the first
	// 64k probes of a full-space universe touch many distinct /8s roughly
	// evenly.
	u, err := NewUniverse(77, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buckets [256]int
	it := u.Iterate()
	const n = 1 << 16
	for i := 0; i < n; i++ {
		a, ok := it.Next()
		if !ok {
			t.Fatal("universe exhausted")
		}
		buckets[a>>24]++
	}
	want := float64(n) / 256
	for b, got := range buckets {
		if float64(got) < want*0.5 || float64(got) > want*1.5 {
			t.Errorf("/8 %d received %d of first %d probes (expected ≈%.0f)", b, got, n, want)
		}
	}
}

func TestPermutationAvalanche(t *testing.T) {
	// Neighboring indices must map to wildly different outputs: measure
	// the average Hamming distance of Apply(i) vs Apply(i+1).
	p, _ := NewPermutation(32, 5)
	var totalBits int
	const n = 4096
	for i := uint64(0); i < n; i++ {
		x := p.Apply(i) ^ p.Apply(i+1)
		for x != 0 {
			totalBits += int(x & 1)
			x >>= 1
		}
	}
	avg := float64(totalBits) / n
	if avg < 10 || avg > 22 {
		t.Errorf("avalanche = %.1f bits flipped on average, want ≈16", avg)
	}
}

// TestUniversePositionInvertsAt walks whole small universes — odd and even
// permutation widths (the odd ones cycle-walk), with and without the
// Table I blocklist — and requires Position to invert At on every eligible
// position and to refuse excluded and off-coset addresses.
func TestUniversePositionInvertsAt(t *testing.T) {
	for _, shift := range []uint8{19, 20, 21, 22} { // widths 13, 12, 11, 10
		for _, excl := range []*ipv4.Blocklist{nil, ipv4.NewReservedBlocklist()} {
			u, err := NewUniverse(uint64(shift)*7919, shift, excl)
			if err != nil {
				t.Fatal(err)
			}
			var eligible, excluded uint64
			for i := uint64(0); i < u.Indexes(); i++ {
				a, ok := u.At(i)
				pos, found := u.Position(a)
				if !ok {
					excluded++
					if found {
						t.Fatalf("shift %d: excluded %v at %d has position %d", shift, a, i, pos)
					}
					continue
				}
				eligible++
				if !found || pos != i {
					t.Fatalf("shift %d excl %v: Position(At(%d)=%v) = %d, %v", shift, excl != nil, i, a, pos, found)
				}
				if _, found := u.Position(a ^ 1); found {
					t.Fatalf("shift %d: off-coset %v has a position", shift, a^1)
				}
			}
			if eligible != u.AllowedCount() {
				t.Errorf("shift %d excl %v: %d eligible, AllowedCount %d", shift, excl != nil, eligible, u.AllowedCount())
			}
			if excl != nil && excluded == 0 {
				t.Errorf("shift %d: the blocklist excluded nothing", shift)
			}
		}
	}
}

// FuzzUniversePosition checks the At/Position round trip at arbitrary
// (seed, shift, position), including full-width universes no test can
// enumerate.
func FuzzUniversePosition(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint64(0))
	f.Add(uint64(42), uint8(13), uint64(123456))
	f.Add(uint64(7), uint8(6), uint64(1<<26-1))
	f.Add(uint64(99), uint8(30), uint64(3))
	excl := ipv4.NewReservedBlocklist()
	f.Fuzz(func(t *testing.T, seed uint64, shift uint8, idx uint64) {
		shift %= 31
		u, err := NewUniverse(seed, shift, excl)
		if err != nil {
			t.Fatal(err)
		}
		idx %= u.Indexes()
		a, ok := u.At(idx)
		pos, found := u.Position(a)
		if ok != found || (ok && pos != idx) {
			t.Fatalf("At(%d) = %v, %v; Position = %d, %v", idx, a, ok, pos, found)
		}
		if shift > 0 {
			if _, found := u.Position(a ^ 1); found {
				t.Fatalf("off-coset %v has a position", a^1)
			}
		}
	})
}

// BenchmarkUniverseNext times the prober's universe walk per address
// handed out, at the sampling and exclusions of a shift-8 campaign.
func BenchmarkUniverseNext(b *testing.B) {
	u, _ := NewUniverse(1, 8, ipv4.NewReservedBlocklist())
	it := u.Iterate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := it.Next(); !ok {
			it = u.Iterate()
		}
	}
}

// Remaining returns an upper bound on candidates left (including excluded),
// counting the buffered positions not yet handed out.
func (it *Iterator) Remaining() uint64 {
	n := uint64(it.held)
	if it.pos < it.end {
		n += it.end - it.pos
	}
	return n
}
