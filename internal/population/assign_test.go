package population

import (
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
	for _, c := range pop.Cohorts {
		for i := uint64(0); i < c.Count; i++ {
			addr, err := a.Next(c.Country)
			if err != nil {
				t.Fatalf("cohort %s/%s: %v", c.Class, c.Country, err)
			}
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
	for _, c := range pop.Cohorts {
		for i := uint64(0); i < c.Count; i++ {
			addr, err := a.Next(c.Country)
			if err != nil {
				t.Fatal(err)
			}
			if c.Country == "" {
				continue
			}
			if got := reg.Country(addr); got != c.Country {
				t.Fatalf("cohort wants %s, address %v geolocates to %s", c.Country, addr, got)
			}
		}
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
	for i := uint64(0); i < usCount; i++ {
		if _, err := a.Next("US"); err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
	}
	if _, err := a.Next("US"); err == nil {
		t.Error("over-drawing the US reservation succeeded")
	}
}

func TestAssignerUnknownCountry(t *testing.T) {
	pop, u := buildScaled(t, paperdata.Y2018, 12)
	a, err := NewAssigner(u, geo.DefaultRegistry(), pop)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Next("XX"); err == nil {
		t.Error("unknown country accepted")
	}
}

func TestAssignerRejectsImpossibleCountryLoad(t *testing.T) {
	// A universe sampled so thinly that a country's blocks cannot host its
	// cohort must fail at construction, not at Next.
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

// BenchmarkAssignerDraw times the unpinned stride walk per drawn address
// at full scale (shift 0), drawing in blocks as a synthetic shard does.
func BenchmarkAssignerDraw(b *testing.B) {
	u, err := scan.NewUniverse(1, 0, ipv4.NewReservedBlocklist())
	if err != nil {
		b.Fatal(err)
	}
	a, err := NewAssigner(u, geo.DefaultRegistry(), &Population{})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]ipv4.Addr, 1024)
	b.ResetTimer()
	for n := b.N; n > 0; n -= len(buf) {
		if err := a.Draw("", buf[:min(n, len(buf))]); err != nil {
			b.Fatal(err)
		}
	}
}
