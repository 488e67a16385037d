package population

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"openresolver/internal/geo"
	"openresolver/internal/ipv4"
	"openresolver/internal/scan"
)

// serialWalk is the assigner's unpinned stride walk one position at a
// time: the definition the four-lane walk must reproduce draw for draw.
type serialWalk struct {
	a           *Assigner // for the universe, stride and avoid set
	pos, issued uint64
}

var errWalkEnd = errors.New("universe exhausted")

func (w *serialWalk) next() (ipv4.Addr, error) {
	n := w.a.u.Indexes()
	for w.issued < n {
		idx := w.pos % n
		w.pos += w.a.stride
		w.issued++
		if addr, ok := w.a.u.At(idx); ok && !w.a.avoided(addr) {
			return addr, nil
		}
	}
	return 0, errWalkEnd
}

// draws returns the serial walk's next k draws, or the error at the draw
// that runs out.
func (w *serialWalk) draws(k int) ([]ipv4.Addr, error) {
	out := make([]ipv4.Addr, 0, k)
	for range k {
		addr, err := w.next()
		if err != nil {
			return nil, err
		}
		out = append(out, addr)
	}
	return out, nil
}

// TestLaneWalkMatchesSerialWalk drives the assigner with a random mix of
// Next(""), AdvanceUnpinned and Draw calls of random sizes, and Forks taken
// wherever the mix happens to be (usually mid-group), and requires every
// draw to equal the serial walk's. The avoid set holds some of the walk's
// own addresses, so skipping them is covered. Shift 1 cycle-walks (31 bits,
// two 16-bit Feistel halves); shift 30 is the smallest universe (four
// positions), and shifts 20 and 30 run to exhaustion, which must hit the
// same draw as in the serial walk.
func TestLaneWalkMatchesSerialWalk(t *testing.T) {
	for _, tc := range []struct {
		shift   uint8
		draws   int
		exhaust bool
	}{{0, 20000, false}, {1, 20000, false}, {5, 20000, false}, {10, 20000, false}, {20, 0, true}, {30, 0, true}} {
		u, err := scan.NewUniverse(3, tc.shift, ipv4.NewReservedBlocklist())
		if err != nil {
			t.Fatal(err)
		}
		// Avoid a few addresses the walk itself would draw.
		probe, err := NewAssigner(u, geo.DefaultRegistry(), &Population{})
		if err != nil {
			t.Fatal(err)
		}
		first, _ := (&serialWalk{a: probe}).draws(min(64, int(u.AllowedCount())))
		var infra []ipv4.Addr
		for i := 2; i < len(first); i += 7 {
			infra = append(infra, first[i])
		}
		a, err := NewAssigner(u, geo.DefaultRegistry(), &Population{}, infra...)
		if err != nil {
			t.Fatal(err)
		}
		ref := &serialWalk{a: a}
		rng := rand.New(rand.NewSource(int64(tc.shift)))
		drawn, ended := 0, false
		for step := 0; !ended && (tc.exhaust || drawn < tc.draws); step++ {
			k := 1 + rng.Intn(9)
			if rng.Intn(4) == 0 {
				k = rng.Intn(300)
			}
			want, wantErr := ref.draws(k)
			var got []ipv4.Addr
			var gotErr error
			op := rng.Intn(4)
			switch op {
			case 0: // Next(""), k times
				for range k {
					addr, err := a.Next("")
					if err != nil {
						gotErr = err
						break
					}
					got = append(got, addr)
				}
			case 1:
				got = make([]ipv4.Addr, k)
				gotErr = a.Draw("", got)
			case 2:
				// AdvanceUnpinned skips k draws; the next draw shows where
				// it left the cursor.
				gotErr = a.AdvanceUnpinned(uint64(k))
				got = want
			case 3:
				// A fork draws the same k as its parent, from the same
				// point, and leaves the parent's cursor alone.
				f := a.Fork()
				fork := make([]ipv4.Addr, k)
				forkErr := f.Draw("", fork)
				got = make([]ipv4.Addr, k)
				gotErr = a.Draw("", got)
				if (forkErr == nil) != (gotErr == nil) || gotErr == nil && !slices.Equal(fork, got) {
					t.Fatalf("shift %d step %d: fork drew %v (%v), parent %v (%v)", tc.shift, step, fork, forkErr, got, gotErr)
				}
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("shift %d step %d (op %d, %d draws after %d): error %v, serial walk %v", tc.shift, step, op, k, drawn, gotErr, wantErr)
			}
			if wantErr != nil {
				ended = true
				// Exhaustion is final.
				if _, err := a.Next(""); err == nil {
					t.Fatalf("shift %d: a draw succeeded after the universe ran out", tc.shift)
				}
				break
			}
			if !slices.Equal(got, want) {
				t.Fatalf("shift %d step %d (op %d, %d draws after %d): drew %v, serial walk %v", tc.shift, step, op, k, drawn, got, want)
			}
			drawn += k
		}
		if tc.exhaust && !ended {
			t.Fatalf("shift %d: universe never ran out", tc.shift)
		}
		if tc.exhaust && uint64(drawn) > u.AllowedCount() {
			t.Fatalf("shift %d: drew %d of %d eligible addresses", tc.shift, drawn, u.AllowedCount())
		}
	}
}
