package dist

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestLargestRemainderExact(t *testing.T) {
	got, err := LargestRemainder([]uint64{1, 1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 1 {
			t.Errorf("got[%d] = %d", i, v)
		}
	}
}

func TestLargestRemainderProportions(t *testing.T) {
	weights := []uint64{600, 300, 100}
	got, err := LargestRemainder(weights, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{6, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got = %v, want %v", got, want)
			break
		}
	}
}

func TestLargestRemainderSumInvariant(t *testing.T) {
	f := func(ws []uint64, target uint16) bool {
		if len(ws) == 0 {
			return true
		}
		for i := range ws {
			ws[i] %= 1 << 40
		}
		if Sum(ws) == 0 {
			return true
		}
		got, err := LargestRemainder(ws, uint64(target))
		return err == nil && Sum(got) == uint64(target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLargestRemainderPaperScaleNoOverflow(t *testing.T) {
	// Paper-magnitude weights (billions) scaled to small targets and back.
	ws := []uint64{3702258432, 16660123, 6506258, 26926}
	got, err := LargestRemainder(ws, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if Sum(got) != 1<<22 {
		t.Fatalf("sum = %d", Sum(got))
	}
	// The dominant weight must keep its dominance.
	if got[0] < got[1] || got[1] < got[2] || got[2] < got[3] {
		t.Errorf("ordering lost: %v", got)
	}
}

func TestLargestRemainderUpscale(t *testing.T) {
	got, err := LargestRemainder([]uint64{1, 2}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1000 || got[1] != 2000 {
		t.Errorf("got %v", got)
	}
}

func TestLargestRemainderZeroWeights(t *testing.T) {
	if _, err := LargestRemainder([]uint64{0, 0}, 5); err == nil {
		t.Error("zero weights with nonzero target accepted")
	}
	got, err := LargestRemainder([]uint64{0, 0}, 0)
	if err != nil || Sum(got) != 0 {
		t.Errorf("zero target: %v, %v", got, err)
	}
}

func TestLargestRemainderDeterministicTies(t *testing.T) {
	a, _ := LargestRemainder([]uint64{1, 1, 1, 1}, 2)
	b, _ := LargestRemainder([]uint64{1, 1, 1, 1}, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tie-breaking nondeterministic")
		}
	}
	if a[0] != 1 || a[1] != 1 || a[2] != 0 || a[3] != 0 {
		t.Errorf("ties must favor low indexes: %v", a)
	}
}

// referenceLargestRemainder is the textbook Hamilton method: floor every
// quota, sort all remainders (largest first, lower index first among
// equals) and hand the shortfall out down that order.
func referenceLargestRemainder(weights []uint64, target uint64) []uint64 {
	total := Sum(weights)
	out := make([]uint64, len(weights))
	type rem struct {
		idx int
		r   uint64
	}
	rems := make([]rem, len(weights))
	var allocated uint64
	for i, w := range weights {
		q, r := mulDiv(w, target, total)
		out[i] = q
		allocated += q
		rems[i] = rem{i, r}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].r != rems[b].r {
			return rems[a].r > rems[b].r
		}
		return rems[a].idx < rems[b].idx
	})
	for i := uint64(0); i < target-allocated; i++ {
		out[rems[i].idx]++
	}
	return out
}

// TestApportionMatchesReference checks the cut-based selection against
// the full sort on weight lists full of ties (few distinct values, as in
// the population's long tails) and of distinct paper-scale weights, with
// one Apportioner reused across calls of every size.
func TestApportionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a Apportioner
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(300)
		ws := make([]uint64, n)
		distinct := 1 + rng.Intn(6)
		for i := range ws {
			if trial%2 == 0 {
				ws[i] = uint64(1 + rng.Intn(distinct))
			} else {
				ws[i] = uint64(rng.Int63n(1 << 33))
			}
		}
		target := uint64(rng.Int63n(int64(Sum(ws)) + 1))
		if trial%3 == 0 {
			target = Sum(ws) >> uint(rng.Intn(12))
		}
		got := make([]uint64, n)
		if err := a.Apportion(got, ws, target); err != nil {
			t.Fatal(err)
		}
		want := referenceLargestRemainder(ws, target)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d target=%d): part %d = %d, want %d", trial, n, target, i, got[i], want[i])
			}
		}
	}
}

func TestMulDiv(t *testing.T) {
	tests := []struct{ a, b, c, q, r uint64 }{
		{6, 7, 4, 10, 2},
		{1 << 40, 1 << 40, 1 << 40, 1 << 40, 0},
		{3702258432, 111093, 6505764, 63222, 3228024},
		{0, 5, 3, 0, 0},
	}
	for _, tt := range tests {
		q, r := mulDiv(tt.a, tt.b, tt.c)
		// Verify against the identity q*c + r == a*b (mod 2^64 safe here).
		if q*tt.c+r != tt.a*tt.b && tt.a < 1<<32 && tt.b < 1<<32 {
			t.Errorf("mulDiv(%d,%d,%d) = %d,%d fails identity", tt.a, tt.b, tt.c, q, r)
		}
		if r >= tt.c {
			t.Errorf("mulDiv(%d,%d,%d) remainder %d >= %d", tt.a, tt.b, tt.c, r, tt.c)
		}
	}
}

func TestPropertyMulDivIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		a := rng.Uint64() >> uint(rng.Intn(33))
		b := rng.Uint64() >> uint(rng.Intn(33))
		c := rng.Uint64()>>uint(rng.Intn(40)) | 1
		q, r := mulDiv(a, b, c)
		if r >= c {
			t.Fatalf("mulDiv(%d,%d,%d): rem %d >= div", a, b, c, r)
		}
		// Check the identity modulo 2^64 (both sides wrap identically).
		if q*c+r != a*b {
			t.Fatalf("mulDiv(%d,%d,%d) = %d,%d identity failed", a, b, c, q, r)
		}
	}
}

func TestScaleDown(t *testing.T) {
	counts := []uint64{1024, 2048, 1024}
	got, err := ScaleDown(counts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if Sum(got) != 4 {
		t.Errorf("sum = %d, want 4", Sum(got))
	}
	if got[1] != 2 {
		t.Errorf("middle = %d, want 2", got[1])
	}
}

func TestScaleDownRounds(t *testing.T) {
	// 1536/1024 rounds to 2.
	got, err := ScaleDown([]uint64{1536}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Errorf("got %v, want [2]", got)
	}
}

func TestTransportBasic(t *testing.T) {
	// The 2018 correct-answer class: RA marginal (Table IV) joined with the
	// reconciled AA marginal (Table V, −10; see paperdata discrepancies).
	m, err := Transport([]uint64{3994, 2748568}, []uint64{2727467, 25095})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]uint64{{3994, 0}, {2723473, 25095}}
	for i := range want {
		for j := range want[i] {
			if m[i][j] != want[i][j] {
				t.Fatalf("m = %v, want %v", m, want)
			}
		}
	}
}

func TestTransportMismatch(t *testing.T) {
	if _, err := Transport([]uint64{1, 2}, []uint64{4}); err == nil {
		t.Error("mismatched marginals accepted")
	}
}

func TestTransportPropertyMarginals(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		nr, nc := 1+rng.Intn(5), 1+rng.Intn(5)
		rows := make([]uint64, nr)
		var total uint64
		for i := range rows {
			rows[i] = uint64(rng.Intn(1000))
			total += rows[i]
		}
		cols, err := LargestRemainder(randPositiveWeights(rng, nc), total)
		if err != nil {
			if total == 0 {
				continue
			}
			t.Fatal(err)
		}
		m, err := Transport(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rows {
			var s uint64
			for j := range cols {
				s += m[i][j]
			}
			if s != r {
				t.Fatalf("row %d sum %d != %d", i, s, r)
			}
		}
		for j, c := range cols {
			var s uint64
			for i := range rows {
				s += m[i][j]
			}
			if s != c {
				t.Fatalf("col %d sum %d != %d", j, s, c)
			}
		}
	}
}

func randPositiveWeights(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = 1 + uint64(rng.Intn(100))
	}
	return w
}

func TestTransportZeroEdges(t *testing.T) {
	m, err := Transport([]uint64{0, 5, 0}, []uint64{0, 0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if m[1][2] != 5 {
		t.Errorf("m = %v", m)
	}
}

func TestSpreadUnique(t *testing.T) {
	s, err := SpreadUnique(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := []uint64{s.At(0), s.At(1), s.At(2)}
	if Sum(got) != 10 {
		t.Errorf("sum = %d", Sum(got))
	}
	for i, v := range got {
		if v == 0 {
			t.Errorf("item %d got zero", i)
		}
	}
	if got[0] < got[len(got)-1] {
		t.Error("profile must be non-increasing")
	}
	if _, err := SpreadUnique(2, 3); err == nil {
		t.Error("total < n accepted")
	}
	if s, err := SpreadUnique(0, 0); err != nil || s != (Spread{}) {
		t.Errorf("empty spread: %v, %v", s, err)
	}
	if _, err := SpreadUnique(1, 0); err == nil {
		t.Error("packets over zero uniques accepted")
	}
}

func BenchmarkLargestRemainder(b *testing.B) {
	ws := make([]uint64, 200)
	for i := range ws {
		ws[i] = uint64(i*i + 1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := LargestRemainder(ws, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}
