// Package geo is the reproduction's substitute for the ip2location service
// the paper uses to geolocate malicious resolvers (§IV-C2) and for the
// whois lookups behind Table VIII's "Org Name" column.
//
// It implements an RIR-style registry: a static table of CIDR allocations
// mapping to ISO 3166-1 country codes, autonomous systems and organization
// names. The allocations are synthetic but shaped like the real registry —
// large blocks for large registries, one or more blocks per country — and
// they cover every country appearing in the paper's 2013 and 2018 malicious
// resolver distributions, plus the organizations named in Table VIII.
package geo

import (
	"fmt"
	"sort"

	"openresolver/internal/ipv4"
)

// Info is the result of a registry lookup.
type Info struct {
	Country string // ISO 3166-1 alpha-2, "ZZ" if unallocated
	ASN     uint32
	Org     string
}

// Allocation is one registry entry.
type Allocation struct {
	Block ipv4.Block
	Info  Info
}

// Registry resolves addresses to allocations. Lookups are O(log n) over the
// sorted allocation list; more-specific (longer-prefix) allocations win,
// as in the real routing registry.
type Registry struct {
	// sorted by block base; ties broken by longer prefix first.
	allocs []Allocation
	// byCountry indexes allocations for address assignment.
	byCountry map[string][]Allocation
}

// NewRegistry builds a registry from allocations.
func NewRegistry(allocs []Allocation) *Registry {
	r := &Registry{
		allocs:    append([]Allocation(nil), allocs...),
		byCountry: make(map[string][]Allocation),
	}
	sort.Slice(r.allocs, func(i, j int) bool {
		if r.allocs[i].Block.Base != r.allocs[j].Block.Base {
			return r.allocs[i].Block.Base < r.allocs[j].Block.Base
		}
		return r.allocs[i].Block.Bits > r.allocs[j].Block.Bits
	})
	for _, a := range r.allocs {
		r.byCountry[a.Info.Country] = append(r.byCountry[a.Info.Country], a)
	}
	return r
}

// Lookup returns the most specific allocation covering addr. ok is false
// for unallocated space, in which case Info has Country "ZZ".
func (r *Registry) Lookup(addr ipv4.Addr) (Info, bool) {
	// Binary search for the last allocation with Base <= addr, then walk
	// back over candidates that could still cover addr. Allocation lists
	// are small (hundreds), and nesting depth is tiny, so the walk is short.
	i := sort.Search(len(r.allocs), func(i int) bool { return r.allocs[i].Block.Base > addr })
	var best *Allocation
	for j := i - 1; j >= 0; j-- {
		a := &r.allocs[j]
		if a.Block.Contains(addr) {
			if best == nil || a.Block.Bits > best.Block.Bits {
				best = a
			}
			if a.Block.Bits == 32 {
				break
			}
			continue
		}
		// Once we pass a /8 whose whole range ends before addr there can be
		// no earlier cover; /8 is the coarsest allocation we issue.
		if a.Block.Last() < addr && a.Block.Bits <= 8 {
			break
		}
	}
	if best == nil {
		return Info{Country: "ZZ"}, false
	}
	return best.Info, true
}

// Country returns the country code for addr ("ZZ" when unallocated).
func (r *Registry) Country(addr ipv4.Addr) string {
	info, _ := r.Lookup(addr)
	return info.Country
}

// Org returns the organization name for addr, or "unknown".
func (r *Registry) Org(addr ipv4.Addr) string {
	if ipv4.IsPrivate(addr) {
		return "private network"
	}
	info, ok := r.Lookup(addr)
	if !ok || info.Org == "" {
		return "unknown"
	}
	return info.Org
}

// CountryBlocks returns the allocations of a country, for address
// assignment by the population compiler.
func (r *Registry) CountryBlocks(country string) []Allocation {
	return r.byCountry[country]
}

// countrySeats lays out one /12 (1,048,576 addresses) per country for every
// country in the paper's malicious-resolver distributions, carved out of
// unreserved unicast space. The US additionally receives the large legacy
// blocks hosting the organizations named in the paper.
var countrySeats = []struct {
	country string
	cidr    string
	asn     uint32
	org     string
}{
	// One /12 seat per country, laid consecutively from 28.0.0.0 and, after
	// 100.64/10 approaches, jumping over reserved space. All bases chosen
	// outside every Table I block.
	{"US", "28.0.0.0/12", 7018, "AT&T Services"},
	{"CA", "28.16.0.0/12", 812, "Rogers Communications"},
	{"BR", "28.32.0.0/12", 28573, "Claro Brasil"},
	{"AR", "28.48.0.0/12", 7303, "Telecom Argentina"},
	{"GB", "28.64.0.0/12", 2856, "British Telecom"},
	{"DE", "28.80.0.0/12", 3320, "Deutsche Telekom"},
	{"FR", "28.96.0.0/12", 3215, "Orange"},
	{"NL", "28.112.0.0/12", 1136, "KPN"},
	{"ES", "28.128.0.0/12", 3352, "Telefonica de Espana"},
	{"PT", "28.144.0.0/12", 3243, "MEO"},
	{"IT", "28.160.0.0/12", 3269, "Telecom Italia"},
	{"CH", "28.176.0.0/12", 3303, "Swisscom"},
	{"AT", "28.192.0.0/12", 8447, "A1 Telekom Austria"},
	{"PL", "28.208.0.0/12", 5617, "Orange Polska"},
	{"BG", "28.224.0.0/12", 8866, "Vivacom"},
	{"RU", "28.240.0.0/12", 12389, "Rostelecom"},
	{"TR", "29.0.0.0/12", 9121, "Turk Telekom"},
	{"SE", "29.16.0.0/12", 3301, "Telia"},
	{"IE", "29.32.0.0/12", 5466, "Eir"},
	{"LT", "29.48.0.0/12", 8764, "Telia Lietuva"},
	{"UA", "29.64.0.0/12", 6849, "Ukrtelecom"},
	{"VA", "29.80.0.0/12", 8978, "Vatican Telecom"},
	{"CN", "29.96.0.0/12", 4134, "China Telecom"},
	{"HK", "29.112.0.0/12", 4760, "PCCW"},
	{"TW", "29.128.0.0/12", 3462, "Chunghwa Telecom"},
	{"KR", "29.144.0.0/12", 4766, "Korea Telecom"},
	{"JP", "29.160.0.0/12", 2914, "NTT"},
	{"IN", "29.176.0.0/12", 9829, "BSNL"},
	{"VN", "29.192.0.0/12", 7552, "Viettel"},
	{"TH", "29.208.0.0/12", 7470, "True Internet"},
	{"SG", "29.224.0.0/12", 7473, "Singtel"},
	{"ID", "29.240.0.0/12", 7713, "Telkom Indonesia"},
	{"MY", "30.0.0.0/12", 4788, "Telekom Malaysia"},
	{"AU", "30.16.0.0/12", 1221, "Telstra"},
	{"AE", "30.32.0.0/12", 5384, "Etisalat"},
	{"SA", "30.48.0.0/12", 25019, "Saudi Telecom"},
	{"IR", "30.64.0.0/12", 58224, "TIC"},
	{"JO", "30.80.0.0/12", 8697, "Jordan Telecom"},
	{"ZA", "30.96.0.0/12", 3741, "Internet Solutions"},
	{"KE", "30.112.0.0/12", 33771, "Safaricom"},
	{"MA", "30.128.0.0/12", 36903, "Maroc Telecom"},
	{"NA", "30.144.0.0/12", 36996, "Telecom Namibia"},
	{"VG", "30.160.0.0/12", 11139, "CCT Global"},
	{"KY", "30.176.0.0/12", 6639, "Cable & Wireless Cayman"},
	{"PR", "30.192.0.0/12", 14638, "Liberty Puerto Rico"},
	{"NI", "30.208.0.0/12", 14754, "Telgua Nicaragua"},
	{"MX", "30.224.0.0/12", 8151, "Telmex"},

	// Large US legacy blocks: the bulk of both years' malicious resolvers
	// (98% in 2013, 81% in 2018) must fit in US space, and the Table VIII
	// organizations live at their real prefixes.
	{"US", "20.0.0.0/8", 8075, "Microsoft"},
	{"US", "63.0.0.0/8", 701, "Verizon Business"},
	{"US", "64.0.0.0/8", 6079, "US mixed allocations"},
	{"US", "66.0.0.0/8", 6128, "US mixed allocations"},
	{"US", "68.0.0.0/8", 7922, "Comcast"},
	{"US", "74.0.0.0/8", 46606, "US mixed allocations"},
	{"US", "76.0.0.0/8", 7922, "Comcast"},
	{"US", "173.0.0.0/8", 36351, "US mixed allocations"},
	{"US", "204.0.0.0/8", 3356, "Level 3"},
	{"US", "208.0.0.0/8", 209, "CenturyLink"},
	{"US", "209.0.0.0/8", 209, "CenturyLink"},
	{"US", "216.0.0.0/8", 6461, "US mixed allocations"},

	// Organization-specific prefixes named in Table VIII / §IV-C1.
	{"CA", "216.194.64.0/19", 10929, "Tera-byte Dot Com"},
	{"US", "74.220.192.0/19", 46606, "Unified Layer"},
	{"VG", "208.91.196.0/22", 40438, "Confluence Network Inc"},
	{"CH", "141.8.224.0/21", 47846, "Rook Media GmbH"},
	{"TW", "114.44.0.0/16", 3462, "Chunghwa Telecom"},
	{"TW", "118.166.0.0/16", 3462, "Chunghwa Telecom"},
	{"US", "173.192.0.0/15", 36351, "SoftLayer"},
	{"CN", "221.238.0.0/15", 17638, "China Unicom Tianjin"},
	{"US", "68.87.0.0/16", 7922, "Comcast"},
	{"US", "198.105.244.0/24", 30496, "unnamed in paper"},
}

// DefaultRegistry builds the registry described above. It is deterministic
// and stateless, so callers may share one instance.
func DefaultRegistry() *Registry {
	allocs := make([]Allocation, 0, len(countrySeats))
	for _, s := range countrySeats {
		allocs = append(allocs, Allocation{
			Block: ipv4.MustParseBlock(s.cidr),
			Info:  Info{Country: s.country, ASN: s.asn, Org: s.org},
		})
	}
	return NewRegistry(allocs)
}

// String renders an Info in a whois-like single line.
func (i Info) String() string {
	return fmt.Sprintf("%s AS%d %s", i.Country, i.ASN, i.Org)
}
