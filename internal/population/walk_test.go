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
	a           *Assigner // for the universe and avoid set
	pos, issued uint64
}

var errWalkEnd = errors.New("universe exhausted")

// visit moves past the next position and returns its address, with ok
// set if the walk draws it.
func (w *serialWalk) visit() (addr ipv4.Addr, ok bool) {
	idx := w.pos % w.a.u.Indexes()
	w.pos += stride
	w.issued++
	addr, ok = w.a.u.At(idx)
	return addr, ok && !w.a.avoided(addr)
}

func (w *serialWalk) next() (ipv4.Addr, error) {
	for w.issued < w.a.u.Indexes() {
		if addr, ok := w.visit(); ok {
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

// TestLaneWalkMatchesSerialWalk requires the four-lane walk to draw what
// the serial walk draws, both ways it is reached. AppendSteps over ranges
// between random cut points (multiples of 4, some ranges empty) must
// append the serial walk's draws over the same steps. Assign over a random
// interleaving of pinned and unpinned cohorts (some empty) must give each
// unpinned resolver the serial walk's next draw and each pinned one its
// country's next reserved address. The avoid set holds some of the walk's
// own addresses, and the reservations, so skipping them is covered. Shift
// 1 cycle-walks (31 bits, two 16-bit Feistel halves); shift 30 is the
// smallest universe (four positions). Shifts 20 and 30, too sparse for the
// reservations, run to exhaustion, which Assign must report at the same
// draw as the serial walk.
func TestLaneWalkMatchesSerialWalk(t *testing.T) {
	reg := geo.DefaultRegistry()
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
		probe, err := NewAssigner(u, reg, &Population{})
		if err != nil {
			t.Fatal(err)
		}
		first, _ := (&serialWalk{a: probe}).draws(min(64, int(u.AllowedCount())))
		var infra []ipv4.Addr
		for i := 2; i < len(first); i += 7 {
			infra = append(infra, first[i])
		}
		rng := rand.New(rand.NewSource(int64(tc.shift)))
		size := func() uint64 {
			if rng.Intn(4) == 0 {
				return uint64(rng.Intn(300))
			}
			return uint64(rng.Intn(10))
		}
		unpinned := uint64(tc.draws)
		if tc.exhaust {
			unpinned = u.AllowedCount() + 1
		}
		pop := &Population{}
		for n := uint64(0); n < unpinned; {
			c := Cohort{Count: min(size(), unpinned-n)}
			if tc.shift <= 10 && rng.Intn(3) == 0 {
				c = Cohort{Count: uint64(rng.Intn(4)), Country: []string{"US", "CN", "DE"}[rng.Intn(3)]}
			} else {
				n += c.Count
			}
			pop.Cohorts = append(pop.Cohorts, c)
		}
		a, err := NewAssigner(u, reg, pop, infra...)
		if err != nil {
			t.Fatal(err)
		}

		// AppendSteps, between random cut points.
		ref := &serialWalk{a: a}
		var got, want []ipv4.Addr
		for lo := uint64(0); lo < a.Steps() && (tc.exhaust || len(want) < tc.draws); {
			hi := min(lo+4*size(), a.Steps())
			got = a.AppendSteps(got, lo, hi)
			for ; lo < hi; lo++ {
				if addr, ok := ref.visit(); ok {
					want = append(want, addr)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("shift %d: AppendSteps to step %d drew %d addresses unlike the serial walk's %d", tc.shift, hi, len(got), len(want))
			}
		}

		// Assign, against the serial walk and the reservations in order.
		type draw struct {
			cohort int
			addr   ipv4.Addr
		}
		var gotDraws, wantDraws []draw
		gotErr := a.Assign(pop, func(ci int, addr ipv4.Addr) error {
			gotDraws = append(gotDraws, draw{ci, addr})
			return nil
		})
		ref, taken := &serialWalk{a: a}, map[string]int{}
		var wantErr error
		for ci, c := range pop.Cohorts {
			for i := uint64(0); i < c.Count && wantErr == nil; i++ {
				var addr ipv4.Addr
				var err error
				if c.Country == "" {
					addr, err = ref.next()
				} else {
					addr = a.Reserved(c.Country)[taken[c.Country]]
					taken[c.Country]++
				}
				if wantErr = err; err == nil {
					wantDraws = append(wantDraws, draw{ci, addr})
				}
			}
		}
		if !slices.Equal(gotDraws, wantDraws) {
			t.Fatalf("shift %d: Assign drew %d resolvers unlike the serial walk's %d", tc.shift, len(gotDraws), len(wantDraws))
		}
		if tc.exhaust != (wantErr != nil) || tc.exhaust != errors.Is(gotErr, ErrUniverseExhausted) || !tc.exhaust && gotErr != nil {
			t.Fatalf("shift %d: Assign returned %v after %d draws, serial walk %v", tc.shift, gotErr, len(gotDraws), wantErr)
		}
	}
}
