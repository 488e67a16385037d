// Package dist provides the deterministic integer-distribution primitives
// used by the population compiler: largest-remainder apportionment (for
// scaling the paper's counts down to a sampled universe while preserving
// totals) and the northwest-corner transportation rule (for constructing an
// integer joint distribution from the marginal tables the paper reports).
//
// Everything here is exact integer arithmetic — no floats — so population
// construction is bit-for-bit reproducible and sums are preserved by
// construction, not by rounding luck.
package dist

import (
	"errors"
	"fmt"
	"slices"
)

// Errors returned by the distribution primitives.
var (
	ErrMarginalMismatch = errors.New("dist: row and column sums differ")
	ErrZeroWeights      = errors.New("dist: all weights are zero with nonzero target")
)

// Sum returns the sum of counts.
func Sum(counts []uint64) uint64 {
	var s uint64
	for _, c := range counts {
		s += c
	}
	return s
}

// LargestRemainder apportions target into len(weights) integer parts
// proportional to weights, using the largest-remainder (Hamilton) method.
// The result always sums to target exactly. Ties in remainders are broken
// by lower index, making the apportionment deterministic.
func LargestRemainder(weights []uint64, target uint64) ([]uint64, error) {
	out := make([]uint64, len(weights))
	var a Apportioner
	if err := a.Apportion(out, weights, target); err != nil {
		return nil, err
	}
	return out, nil
}

// Apportioner computes LargestRemainder apportionments into caller-owned
// slices, keeping its remainder scratch from one call to the next, so a
// caller apportioning many groups allocates it once.
type Apportioner struct {
	rems []uint64
}

// Apportion writes LargestRemainder(weights, target) into out, which must
// have len(weights) and must not overlap weights.
func (a *Apportioner) Apportion(out, weights []uint64, target uint64) error {
	total := Sum(weights)
	if total == 0 {
		if target != 0 {
			return ErrZeroWeights
		}
		clear(out)
		return nil
	}
	rems := slices.Grow(a.rems[:0], len(weights))
	var allocated uint64
	for i, w := range weights {
		// floor(w*target/total) and its remainder in 128-bit arithmetic:
		// paper-scale weights times paper-scale targets overflow 64 bits.
		q, r := mulDiv(w, target, total)
		out[i] = q
		allocated += q
		rems = append(rems, r)
	}
	a.rems = rems
	// The shortfall goes to the largest remainders, one each, lower index
	// first among equals. Each remainder is below total, so the shortfall
	// (their sum over total) is below len(weights): finding the
	// short-th largest remainder, cut, decides every part.
	short := target - allocated
	if short == 0 {
		return nil
	}
	if short >= uint64(len(rems)) {
		return fmt.Errorf("dist: weights sum past 2^64 (shortfall %d over %d parts)", short, len(rems))
	}
	slices.Sort(rems)
	cut := rems[len(rems)-int(short)]
	firstAbove, _ := slices.BinarySearch(rems, cut+1)
	atCut := short - uint64(len(rems)-firstAbove)
	for i, w := range weights {
		// The remainder again, in wrapping arithmetic: it is below total,
		// so the low 64 bits of w*target - q*total are all of it.
		switch r := w*target - out[i]*total; {
		case r > cut:
			out[i]++
		case r == cut && atCut > 0:
			out[i]++
			atCut--
		}
	}
	return nil
}

// mulDiv returns (a*b/c, a*b mod c) using 128-bit intermediate arithmetic.
func mulDiv(a, b, c uint64) (quo, rem uint64) {
	// Decompose a*b = hi*2^64 + lo via 32-bit halves.
	aLo, aHi := a&0xFFFFFFFF, a>>32
	bLo, bHi := b&0xFFFFFFFF, b>>32
	// Partial products.
	ll := aLo * bLo
	lh := aLo * bHi
	hl := aHi * bLo
	hh := aHi * bHi
	mid := lh + (ll >> 32)
	carry := uint64(0)
	mid2 := mid + hl
	if mid2 < mid {
		carry = 1
	}
	lo := (mid2 << 32) | (ll & 0xFFFFFFFF)
	hi := hh + (mid2 >> 32) + (carry << 32)
	// Long division of hi:lo by c.
	if hi == 0 {
		return lo / c, lo % c
	}
	// Bit-by-bit division; magnitudes here make this rare and cheap enough.
	var q, r uint64
	for i := 127; i >= 0; i-- {
		r <<= 1
		var bit uint64
		if i >= 64 {
			bit = hi >> (i - 64) & 1
		} else {
			bit = lo >> i & 1
		}
		r |= bit
		if r >= c {
			r -= c
			if i < 64 {
				q |= 1 << i
			}
		}
	}
	return q, r
}

// ScaleDown divides each count by 2^shift in aggregate: the result is the
// largest-remainder apportionment of round(total/2^shift) over the counts.
// This is how a paper-scale cohort list becomes a sampled-universe cohort
// list with proportions preserved.
func ScaleDown(counts []uint64, shift uint8) ([]uint64, error) {
	total := Sum(counts)
	half := uint64(1) << shift >> 1
	target := (total + half) >> shift
	return LargestRemainder(counts, target)
}

// Transport returns an integer matrix with the given row and column sums,
// computed by the northwest-corner rule. It errors if the sums differ.
// The NW rule is deterministic and yields the unique staircase solution,
// which we use to join the paper's marginal tables (e.g. Table IV's RA
// marginal with Table V's AA marginal) into one joint distribution.
func Transport(rows, cols []uint64) ([][]uint64, error) {
	if Sum(rows) != Sum(cols) {
		return nil, fmt.Errorf("%w: rows=%d cols=%d", ErrMarginalMismatch, Sum(rows), Sum(cols))
	}
	m := make([][]uint64, len(rows))
	for i := range m {
		m[i] = make([]uint64, len(cols))
	}
	rowLeft := append([]uint64(nil), rows...)
	colLeft := append([]uint64(nil), cols...)
	i, j := 0, 0
	for i < len(rows) && j < len(cols) {
		x := min(rowLeft[i], colLeft[j])
		m[i][j] = x
		rowLeft[i] -= x
		colLeft[j] -= x
		// Advance past exhausted row/column; when both hit zero advance the
		// row first (the classic NW convention).
		if rowLeft[i] == 0 {
			i++
		} else {
			j++
		}
		// Skip any zero columns so the loop terminates on degenerate input.
		for j < len(cols) && colLeft[j] == 0 && i < len(rows) && rowLeft[i] != 0 {
			j++
		}
	}
	return m, nil
}

// Spread is a closed-form multiplicity profile over n unique values:
// item i carries Base, plus one when i < Extra.
type Spread struct {
	Base, Extra uint64
}

// SpreadUnique produces multiplicities for unique values: it distributes
// total over n items such that every item gets at least 1 and the result
// sums to total exactly, with a mildly decreasing profile (the first items
// receive the remainder) matching the long-tail shape of incorrect-answer
// IPs in Table VII. It errors if total < n.
func SpreadUnique(total uint64, n int) (Spread, error) {
	if n == 0 {
		if total != 0 {
			return Spread{}, fmt.Errorf("dist: %d packets over zero unique values", total)
		}
		return Spread{}, nil
	}
	if total < uint64(n) {
		return Spread{}, fmt.Errorf("dist: total %d < unique %d", total, n)
	}
	base := total / uint64(n)
	return Spread{Base: base, Extra: total - base*uint64(n)}, nil
}

// At returns item i's multiplicity.
func (s Spread) At(i int) uint64 {
	if uint64(i) < s.Extra {
		return s.Base + 1
	}
	return s.Base
}
