package dnssrv

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestAppendProbeNameMatchesSprintf pins the builder to the exact bytes
// the historical fmt.Sprintf produced, including out-of-width and negative
// inputs (which ParseProbeName rejects, but the renderings must not
// silently change).
func TestAppendProbeNameMatchesSprintf(t *testing.T) {
	cases := []struct{ cluster, index int }{
		{0, 0}, {0, 1}, {3, 4999999}, {799, 9999999},
		{1000, 10000000}, {12345, 123456789}, {-3, -42},
	}
	for _, c := range cases {
		want := fmt.Sprintf("or%03d.%07d.%s", c.cluster, c.index, testSLD)
		if got := FormatProbeName(c.cluster, c.index, testSLD); got != want {
			t.Errorf("FormatProbeName(%d, %d) = %q, want %q", c.cluster, c.index, got, want)
		}
		if got := string(AppendProbeName(nil, c.cluster, c.index, testSLD)); got != want {
			t.Errorf("AppendProbeName(%d, %d) = %q, want %q", c.cluster, c.index, got, want)
		}
	}
	f := func(cluster int32, index int32) bool {
		want := fmt.Sprintf("or%03d.%07d.%s", cluster, index, testSLD)
		return FormatProbeName(int(cluster), int(index), testSLD) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPutProbeIndexMatchesSprintf pins PutProbeIndex to the bytes of
// fmt's %07d over the index range's edges, every power of ten, and random
// indexes, each written over another index's digits.
func TestPutProbeIndexMatchesSprintf(t *testing.T) {
	indexes := []int{0, 9, 10, 99, 100, 9999999}
	for p := 1; p < 10000000; p *= 10 {
		indexes = append(indexes, p, p-1, p+1)
	}
	rng := rand.New(rand.NewSource(1))
	for range 10000 {
		indexes = append(indexes, rng.Intn(10000000))
	}
	dst := []byte("8888888|")
	for _, index := range indexes {
		PutProbeIndex(dst, index)
		if got, want := string(dst), fmt.Sprintf("%07d|", index); got != want {
			t.Fatalf("PutProbeIndex(%d) wrote %q, want %q", index, got, want)
		}
	}
}

// TestProbeNameAllocs is the hot-path allocation budget: the append
// builder is allocation-free into a preallocated buffer, and the string
// form costs exactly the one unavoidable string conversion.
func TestProbeNameAllocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendProbeName(buf[:0], 123, 4567890, testSLD)
	}); n != 0 {
		t.Errorf("AppendProbeName allocates %.1f times per op, want 0", n)
	}
	var sink string
	if n := testing.AllocsPerRun(200, func() {
		sink = FormatProbeName(123, 4567890, testSLD)
	}); n > 1 {
		t.Errorf("FormatProbeName allocates %.1f times per op, want ≤ 1", n)
	}
	_ = sink
}
