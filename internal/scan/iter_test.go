package scan

import (
	"math/rand"
	"testing"

	"openresolver/internal/ipv4"
)

// checkWalk walks it to exhaustion and requires exactly the At-filtered
// sequence of positions start, start+1, … below end, in that order.
// After each address it also requires Remaining to count exactly the
// positions after the one just handed out, excluded or not.
func checkWalk(t *testing.T, name string, u *Universe, it *Iterator, start, end uint64) {
	t.Helper()
	if got, want := it.Remaining(), end-min(start, end); got != want {
		t.Fatalf("%s: Remaining before the walk = %d, want %d", name, got, want)
	}
	n := 0
	for q := start; q < end; q++ {
		a, eligible := u.At(q)
		if !eligible {
			continue
		}
		got, ok := it.Next()
		if !ok {
			t.Fatalf("%s: walk ended at address %d, want position %d (%v)", name, n, q, a)
		}
		if got != a {
			t.Fatalf("%s: address %d is %v, want position %d (%v)", name, n, got, q, a)
		}
		if rem, want := it.Remaining(), end-q-1; rem != want {
			t.Fatalf("%s: Remaining after position %d = %d, want %d", name, q, rem, want)
		}
		n++
	}
	if a, ok := it.Next(); ok {
		t.Fatalf("%s: walk yields %v after its %d addresses", name, a, n)
	}
	if rem := it.Remaining(); rem != 0 {
		t.Fatalf("%s: Remaining after the walk = %d", name, rem)
	}
}

// TestIteratorMatchesAtFilter: the four-lane walk hands out exactly the
// addresses a one-position-at-a-time At walk accepts, in the same order,
// for random Range windows (lengths 0–9 and others not a multiple of
// four among them), under a blocklist that excludes runs of whole lane
// groups, and on universes of four positions.
func TestIteratorMatchesAtFilter(t *testing.T) {
	// Everything but 0.0.0.0/2 and 200.0.0.0/5 excluded: about 28% of
	// positions eligible, so whole four-lane groups come out excluded.
	sparse := ipv4.NewBlocklist(
		ipv4.Block{Base: ipv4.MustParseAddr("64.0.0.0"), Bits: 2},
		ipv4.Block{Base: ipv4.MustParseAddr("128.0.0.0"), Bits: 2},
		ipv4.Block{Base: ipv4.MustParseAddr("192.0.0.0"), Bits: 5},
		ipv4.Block{Base: ipv4.MustParseAddr("208.0.0.0"), Bits: 4},
		ipv4.Block{Base: ipv4.MustParseAddr("224.0.0.0"), Bits: 3},
	)
	rng := rand.New(rand.NewSource(27))
	for _, shift := range []uint8{30, 29, 24, 20, 16} {
		for _, excl := range []*ipv4.Blocklist{nil, ipv4.NewReservedBlocklist(), sparse} {
			u, err := NewUniverse(rng.Uint64(), shift, excl)
			if err != nil {
				t.Fatal(err)
			}
			size := u.Indexes()
			for k := 0; k < 40; k++ {
				start := uint64(rng.Int63n(int64(size) + 2))
				var length uint64
				if k < 20 {
					length = uint64(k % 10)
				} else {
					length = uint64(rng.Int63n(int64(min(size, 4096)) + 1))
				}
				end := start + length
				it := u.Range(start, end)
				checkWalk(t, "range", u, it, min(start, size), min(end, size))
			}
			checkWalk(t, "iterate", u, u.Iterate(), 0, size)
		}
	}
}
