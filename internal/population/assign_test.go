package population

import (
	"fmt"
	"slices"
	"testing"

	"openresolver/internal/geo"
	"openresolver/internal/ipv4"
	"openresolver/internal/paperdata"
	"openresolver/internal/scan"
)

func buildScaled(t *testing.T, y paperdata.Year, shift uint8) (*Population, *scan.Universe) {
	t.Helper()
	pop, err := Build(Config{Year: y, SampleShift: shift, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	u, err := scan.NewUniverse(9, shift, ipv4.NewReservedBlocklist())
	if err != nil {
		t.Fatal(err)
	}
	return pop, u
}

// assignAll returns every address Assign gives pop's resolvers, in order.
func assignAll(t *testing.T, a *Assigner, pop *Population) []ipv4.Addr {
	t.Helper()
	var out []ipv4.Addr
	if err := a.Assign(pop, func(_ int, addr ipv4.Addr) error {
		out = append(out, addr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAssignerUniqueInUniverse(t *testing.T) {
	pop, u := buildScaled(t, paperdata.Y2018, 10)
	infra := []ipv4.Addr{
		ipv4.MustParseAddr("132.170.3.9"), ipv4.MustParseAddr("198.41.0.4"),
		ipv4.MustParseAddr("192.5.6.30"), ipv4.MustParseAddr("45.76.1.10"),
	}
	a, err := NewAssigner(u, geo.DefaultRegistry(), pop, infra...)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[ipv4.Addr]bool)
	infraSet := map[ipv4.Addr]bool{}
	for _, ip := range infra {
		infraSet[ip] = true
	}
	for _, addr := range assignAll(t, a, pop) {
		if seen[addr] {
			t.Fatalf("address %v assigned twice", addr)
		}
		seen[addr] = true
		if !u.Contains(addr) {
			t.Fatalf("address %v outside the scan universe", addr)
		}
		if infraSet[addr] {
			t.Fatalf("infrastructure address %v assigned", addr)
		}
	}
	if uint64(len(seen)) != pop.ExpectedR2 {
		t.Errorf("assigned %d addresses, want %d", len(seen), pop.ExpectedR2)
	}
}

func TestAssignerCountryPlacement(t *testing.T) {
	pop, u := buildScaled(t, paperdata.Y2018, 10)
	reg := geo.DefaultRegistry()
	a, err := NewAssigner(u, reg, pop)
	if err != nil {
		t.Fatal(err)
	}
	err = a.Assign(pop, func(ci int, addr ipv4.Addr) error {
		if want := pop.Cohorts[ci].Country; want != "" && reg.Country(addr) != want {
			t.Fatalf("cohort wants %s, address %v geolocates to %s", want, addr, reg.Country(addr))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAssignerDeterministic(t *testing.T) {
	pop, u := buildScaled(t, paperdata.Y2013, 12)
	reg := geo.DefaultRegistry()
	gen := func() []ipv4.Addr {
		a, err := NewAssigner(u, reg, pop)
		if err != nil {
			t.Fatal(err)
		}
		return assignAll(t, a, pop)
	}
	x, y := gen(), gen()
	if len(x) != len(y) {
		t.Fatal("lengths differ")
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("assignment %d differs: %v vs %v", i, x[i], y[i])
		}
	}
}

func TestAssignerCountryReservationExhaustion(t *testing.T) {
	pop, u := buildScaled(t, paperdata.Y2018, 12)
	a, err := NewAssigner(u, geo.DefaultRegistry(), pop)
	if err != nil {
		t.Fatal(err)
	}
	// Drain a reserved country fully, then one more must fail.
	var usCount uint64
	for _, c := range pop.Cohorts {
		if c.Country == "US" {
			usCount += c.Count
		}
	}
	if usCount == 0 {
		t.Skip("no US malicious cohorts at this scale")
	}
	over := &Population{Cohorts: []Cohort{{Count: usCount, Country: "US"}, {Count: 1, Country: "US"}}}
	var drawn uint64
	err = a.Assign(over, func(int, ipv4.Addr) error { drawn++; return nil })
	if err == nil || drawn != usCount {
		t.Errorf("over-drawing the US reservation: %d of %d draws, then %v", drawn, usCount, err)
	}
}

func TestAssignerUnknownCountry(t *testing.T) {
	pop, u := buildScaled(t, paperdata.Y2018, 12)
	a, err := NewAssigner(u, geo.DefaultRegistry(), pop)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Assign(&Population{Cohorts: []Cohort{{Count: 1, Country: "XX"}}}, func(int, ipv4.Addr) error { return nil }); err == nil {
		t.Error("unknown country accepted")
	}
}

func TestAssignerRejectsImpossibleCountryLoad(t *testing.T) {
	// A universe sampled so thinly that a country's blocks cannot host its
	// cohort must fail at construction, not at Assign.
	pop := &Population{
		Year: paperdata.Y2018,
		Cohorts: []Cohort{
			{Count: 1 << 21, Class: ClassMalicious, Country: "VA"}, // /12 seat holds at most 2^20
		},
	}
	u, err := scan.NewUniverse(1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAssigner(u, geo.DefaultRegistry(), pop); err == nil {
		t.Error("oversized country cohort accepted")
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

func TestAssignerSharedByGoroutines(t *testing.T) {
	// NewAssigner is the only writer of an assigner. Under -race this pins
	// that goroutines calling Assign and AppendSteps on one assigner at
	// once write none of what they share, and draw what one caller draws.
	pop, u := buildScaled(t, paperdata.Y2018, 12)
	a, err := NewAssigner(u, geo.DefaultRegistry(), pop)
	if err != nil {
		t.Fatal(err)
	}
	want := assignAll(t, a, pop)
	walk := a.AppendSteps(nil, 0, a.Steps())
	errs := make(chan error, 4)
	for i := range cap(errs) {
		go func() {
			var got []ipv4.Addr
			if i%2 == 0 {
				err := a.Assign(pop, func(_ int, addr ipv4.Addr) error { got = append(got, addr); return nil })
				if err != nil || !slices.Equal(got, want) {
					errs <- fmt.Errorf("goroutine %d: Assign drew %d addresses unlike the serial %d (%v)", i, len(got), len(want), err)
					return
				}
			} else {
				for lo := uint64(0); lo < a.Steps(); lo += 1 << 8 {
					got = a.AppendSteps(got, lo, lo+1<<8)
				}
				if !slices.Equal(got, walk) {
					errs <- fmt.Errorf("goroutine %d: AppendSteps drew %d addresses unlike the serial %d", i, len(got), len(walk))
					return
				}
			}
			errs <- nil
		}()
	}
	for range cap(errs) {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// BenchmarkAssignerDraw times the unpinned stride walk per drawn address
// at full scale (shift 0): Assign over one unpinned cohort of b.N.
func BenchmarkAssignerDraw(b *testing.B) {
	u, err := scan.NewUniverse(1, 0, ipv4.NewReservedBlocklist())
	if err != nil {
		b.Fatal(err)
	}
	a, err := NewAssigner(u, geo.DefaultRegistry(), &Population{})
	if err != nil {
		b.Fatal(err)
	}
	pop := &Population{Cohorts: []Cohort{{Count: uint64(b.N)}}}
	b.ResetTimer()
	if err := a.Assign(pop, func(int, ipv4.Addr) error { return nil }); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAssignerWalkSteps times the stride walk per step (ns/op is per
// position visited) as the synthetic engine's segment walk runs it:
// AppendSteps over 2^15-step ranges at full scale (shift 0), into one
// reused buffer.
func BenchmarkAssignerWalkSteps(b *testing.B) {
	u, err := scan.NewUniverse(1, 0, ipv4.NewReservedBlocklist())
	if err != nil {
		b.Fatal(err)
	}
	a, err := NewAssigner(u, geo.DefaultRegistry(), &Population{})
	if err != nil {
		b.Fatal(err)
	}
	const segment = 1 << 15
	buf := make([]ipv4.Addr, 0, segment)
	b.ResetTimer()
	for lo := uint64(0); lo < uint64(b.N); lo += segment {
		hi := min(lo+segment, (uint64(b.N)+3)&^3)
		buf = a.AppendSteps(buf[:0], lo, hi)
	}
}
