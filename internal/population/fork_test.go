package population

import (
	"fmt"
	"testing"

	"openresolver/internal/geo"
	"openresolver/internal/ipv4"
	"openresolver/internal/paperdata"
)

// serialAssignments replays the whole population through one assigner,
// returning every (country, address) draw in order.
func serialAssignments(t *testing.T, a *Assigner, pop *Population) []ipv4.Addr {
	t.Helper()
	var out []ipv4.Addr
	for _, c := range pop.Cohorts {
		for i := uint64(0); i < c.Count; i++ {
			addr, err := a.Next(c.Country)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, addr)
		}
	}
	return out
}

func TestForkAdvanceMatchesSerialWalk(t *testing.T) {
	pop, u := buildScaled(t, paperdata.Y2018, 10)
	reg := geo.DefaultRegistry()
	base, err := NewAssigner(u, reg, pop)
	if err != nil {
		t.Fatal(err)
	}
	want := serialAssignments(t, base, pop)

	// Split the population at several global draw boundaries; a fork
	// advanced past the prefix must produce the suffix exactly.
	for _, split := range []int{0, 1, len(want) / 3, len(want) / 2, len(want) - 1} {
		fresh, err := NewAssigner(u, reg, pop)
		if err != nil {
			t.Fatal(err)
		}
		fork := fresh.Fork()
		// Count the prefix's draws per kind by replaying cohort order.
		var unpinned uint64
		byCountry := map[string]uint64{}
		g := 0
		for _, c := range pop.Cohorts {
			for i := uint64(0); i < c.Count && g < split; i++ {
				if c.Country == "" {
					unpinned++
				} else {
					byCountry[c.Country]++
				}
				g++
			}
			if g == split {
				break
			}
		}
		for country, n := range byCountry {
			if err := fork.AdvanceCountry(country, n); err != nil {
				t.Fatal(err)
			}
		}
		if err := fork.AdvanceUnpinned(unpinned); err != nil {
			t.Fatal(err)
		}
		// The fork now reproduces the serial suffix.
		g = 0
		for _, c := range pop.Cohorts {
			for i := uint64(0); i < c.Count; i++ {
				if g >= split {
					addr, err := fork.Next(c.Country)
					if err != nil {
						t.Fatal(err)
					}
					if addr != want[g] {
						t.Fatalf("split %d: draw %d = %v, serial %v", split, g, addr, want[g])
					}
				}
				g++
			}
		}
	}
}

func TestForkIsolatesCursors(t *testing.T) {
	pop, u := buildScaled(t, paperdata.Y2018, 12)
	base, err := NewAssigner(u, geo.DefaultRegistry(), pop)
	if err != nil {
		t.Fatal(err)
	}
	fork := base.Fork()
	a1, err := base.Next("")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := fork.Next("")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Errorf("fork's first draw %v differs from parent's %v", a2, a1)
	}
}

func TestAdvanceCountryBounds(t *testing.T) {
	pop, u := buildScaled(t, paperdata.Y2018, 12)
	a, err := NewAssigner(u, geo.DefaultRegistry(), pop)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AdvanceCountry("US", 1<<40); err == nil {
		t.Error("advancing past the reservation succeeded")
	}
}

func TestAvoidPrefixBitmapCoversAvoidSet(t *testing.T) {
	pop, u := buildScaled(t, paperdata.Y2018, 10)
	a, err := NewAssigner(u, geo.DefaultRegistry(), pop, ipv4.MustParseAddr("45.76.1.10"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.avoid) < 2 {
		t.Fatalf("avoid set holds %d addresses, want the infrastructure plus reservations", len(a.avoid))
	}
	for addr := range a.avoid {
		if !a.avoid16.has(addr) || !a.avoided(addr) {
			t.Fatalf("%v is in the avoid set but not avoided", addr)
		}
	}
	marked := 0
	for p := uint32(0); p < 1<<16; p++ {
		if a.avoid16.has(ipv4.Addr(p << 16)) {
			marked++
		}
	}
	if marked == 0 || marked == 1<<16 {
		t.Errorf("%d of 65536 prefixes marked", marked)
	}
}

func TestForksDrawConcurrently(t *testing.T) {
	// Forks share the universe, the avoid set, its prefix bitmap and the
	// reservations. Under -race this pins that drawing from several forks
	// at once writes none of them.
	pop, u := buildScaled(t, paperdata.Y2018, 12)
	base, err := NewAssigner(u, geo.DefaultRegistry(), pop)
	if err != nil {
		t.Fatal(err)
	}
	want := serialAssignments(t, base.Fork(), pop)
	errs := make(chan error, 4)
	for i := 0; i < cap(errs); i++ {
		fork := base.Fork()
		go func() {
			g := 0
			for _, c := range pop.Cohorts {
				for n := uint64(0); n < c.Count; n++ {
					if addr, err := fork.Next(c.Country); err != nil || addr != want[g] {
						errs <- fmt.Errorf("draw %d = %v (%v), serial %v", g, addr, err, want[g])
						return
					}
					g++
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
