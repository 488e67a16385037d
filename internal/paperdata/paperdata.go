// Package paperdata holds every quantitative result reported in the paper
// ("Where Are You Taking Me? Behavioral Analysis of Open DNS Resolvers",
// DSN 2019) as typed constants: Tables I–X plus the in-text numbers (geo
// distributions, the empty-question breakdown, probing rates).
//
// These values serve two roles:
//  1. they are the calibration targets the population compiler reconstructs
//     a resolver population from, and
//  2. they are the reference column of EXPERIMENTS.md — every regenerated
//     table is compared against them.
//
// The paper's tables contain a handful of internal arithmetic
// inconsistencies (row sums that disagree by a few packets). Those are kept
// verbatim here, and the reconciled values used for population construction
// are derived in derived.go with each adjustment documented in
// discrepancies.go.
package paperdata

import "time"

// Year identifies one of the two measurement campaigns.
type Year int

// The two campaigns contrasted throughout the paper.
const (
	Y2013 Year = 2013
	Y2018 Year = 2018
)

// Campaign is Table II: one row of the probing summary.
type Campaign struct {
	Year          Year
	Start, End    string        // as printed in Table II
	DurationLabel string        // as printed ("7d 5h", "11h")
	ProbeDuration time.Duration // the in-text precise duration
	PacketsPerSec uint64        // probing rate (in-text: 100k pps in 2018)
	Q1            uint64        // probes sent
	Q2R1          uint64        // queries seen at (and answers sent by) our auth NS
	R2            uint64        // responses received at the prober
	R2EmptyQ      uint64        // R2 with an empty question section (§IV-B4)
}

// Campaigns is Table II.
var Campaigns = map[Year]Campaign{
	Y2013: {
		Year:          Y2013,
		Start:         "10/28/2013 2PM",
		End:           "11/04/2013 6PM",
		DurationLabel: "7d 5h",
		ProbeDuration: 7*24*time.Hour + 4*time.Hour,
		PacketsPerSec: 5938, // derived: Q1 / elapsed; the 2013 system was C-based
		Q1:            3676724690,
		Q2R1:          38079578,
		R2:            16660123,
		// The paper only analyzes empty-question responses for 2018; the
		// 2013 dataset's undecodable answers are the N/A form instead.
		R2EmptyQ: 0,
	},
	Y2018: {
		Year:          Y2018,
		Start:         "04/26/2018 3PM",
		End:           "04/27/2018 2AM",
		DurationLabel: "11h",
		ProbeDuration: 10*time.Hour + 35*time.Minute,
		PacketsPerSec: 100000,
		Q1:            3702258432,
		Q2R1:          13049863,
		R2:            6506258,
		R2EmptyQ:      494,
	},
}

// TableITotalPrinted is the total row of Table I as printed. It is an
// arithmetic error in the paper: the row sum is 592,708,865 and the true
// union of the blocks is 592,708,864 (see ipv4.ReservedBlocks).
const TableITotalPrinted uint64 = 575931649

// Correctness is Table III: presence and correctness of dns_answer in R2.
type Correctness struct {
	R2      uint64 // all analyzed R2 (with question)
	Without uint64 // W/O: no dns_answer
	Correct uint64 // W_corr
	Incorr  uint64 // W_incorr
}

// With returns the W column (responses carrying dns_answer).
func (c Correctness) With() uint64 { return c.Correct + c.Incorr }

// ErrPct returns Err(%) = W_incorr / W × 100 as defined under Table III.
func (c Correctness) ErrPct() float64 {
	return float64(c.Incorr) / float64(c.With()) * 100
}

// CorrectnessByYear is Table III. (The paper analyzes the 2018 rows over
// the 6,505,764 with-question packets.)
var CorrectnessByYear = map[Year]Correctness{
	Y2013: {R2: 16660123, Without: 4867241, Correct: 11671589, Incorr: 121293},
	Y2018: {R2: 6505764, Without: 3642109, Correct: 2752562, Incorr: 111093},
}

// FlagRow is one row of Table IV or V: the answer-class split for one value
// of a header flag.
type FlagRow struct {
	Without uint64
	Correct uint64
	Incorr  uint64
}

// Total returns the row total.
func (r FlagRow) Total() uint64 { return r.Without + r.Correct + r.Incorr }

// With returns the W column of the row.
func (r FlagRow) With() uint64 { return r.Correct + r.Incorr }

// ErrPct returns the row's Err(%) = Incorr / W × 100.
func (r FlagRow) ErrPct() float64 {
	return float64(r.Incorr) / float64(r.With()) * 100
}

// FlagTable is Table IV (RA) or Table V (AA) for one year.
type FlagTable struct {
	Flag0, Flag1 FlagRow
}

// RATable is Table IV: dns_answer statistics by the RA bit.
var RATable = map[Year]FlagTable{
	Y2013: {
		Flag0: FlagRow{Without: 4147838, Correct: 166108, Incorr: 75842},
		Flag1: FlagRow{Without: 719403, Correct: 11505481, Incorr: 45451},
	},
	Y2018: {
		Flag0: FlagRow{Without: 3434415, Correct: 3994, Incorr: 65172},
		Flag1: FlagRow{Without: 207694, Correct: 2748568, Incorr: 45921},
	},
}

// AATable is Table V: dns_answer statistics by the AA bit. The 2013 AA0 W
// cell is garbled in the paper's table; Correct is taken as printed
// (11,518,500) and Incorr derived from the row total. The 2018 Flag0 values
// are as printed and disagree with Table III by ±10 packets — see
// Discrepancies and ReconciledAA.
var AATable = map[Year]FlagTable{
	Y2013: {
		Flag0: FlagRow{Without: 4717485, Correct: 11518500, Incorr: 43014},
		Flag1: FlagRow{Without: 149756, Correct: 153089, Incorr: 78279},
	},
	Y2018: {
		Flag0: FlagRow{Without: 3512053, Correct: 2727477, Incorr: 17041},
		Flag1: FlagRow{Without: 130046, Correct: 25095, Incorr: 94052},
	},
}

// RcodeRow is Table VI for one year: packet counts per rcode, split by
// answer presence. Index by rcode value 0..9.
type RcodeRow struct {
	With    [10]uint64
	Without [10]uint64
}

// RcodeNames matches the column headers of Table VI.
var RcodeNames = [10]string{
	"NoError", "FormErr", "ServFail", "NXDomain", "NotImp",
	"Refused", "YXDomain", "YXRRSet", "NXRRSet", "NotAuth",
}

// RcodeTable is Table VI as printed. (The paper omits the NXRRSet column,
// absent from both datasets; index 8 is zero.)
var RcodeTable = map[Year]RcodeRow{
	Y2013: {
		With:    [10]uint64{11780575, 0, 12723, 10, 0, 1272, 0, 0, 0, 0},
		Without: [10]uint64{1198772, 453, 354176, 145724, 38, 3168053, 0, 2, 0, 11},
	},
	Y2018: {
		With:    [10]uint64{2860940, 23, 2489, 10, 0, 193, 0, 0, 0, 0},
		Without: [10]uint64{377803, 233, 200320, 48830, 605, 2934269, 1, 2, 0, 80032},
	},
}

// FormCount is one row of Table VII: packets and unique values for one
// incorrect-answer form.
type FormCount struct {
	Packets uint64
	Unique  uint64
}

// IncorrectForms is Table VII for one year.
type IncorrectForms struct {
	IP  FormCount
	URL FormCount
	Str FormCount
	// NA is the 2013-only undecodable form (libpcap parse failures).
	NA FormCount
}

// Total returns the total incorrect packets across forms.
func (f IncorrectForms) Total() uint64 {
	return f.IP.Packets + f.URL.Packets + f.Str.Packets + f.NA.Packets
}

// IncorrectFormsByYear is Table VII. The 2013 string row prints 57 unique
// values over 10 packets, which is impossible; population construction caps
// unique at packets (see Discrepancies).
var IncorrectFormsByYear = map[Year]IncorrectForms{
	Y2013: {
		IP:  FormCount{Packets: 112270, Unique: 28443},
		URL: FormCount{Packets: 249, Unique: 175},
		Str: FormCount{Packets: 10, Unique: 57},
		NA:  FormCount{Packets: 8764, Unique: 0},
	},
	Y2018: {
		IP:  FormCount{Packets: 110790, Unique: 15022},
		URL: FormCount{Packets: 231, Unique: 80},
		Str: FormCount{Packets: 72, Unique: 29},
	},
}

// TopAnswer is one row of Table VIII (2018) or the in-text 2013 top-10: an
// IP address frequently appearing in incorrect answers.
type TopAnswer struct {
	Addr  string
	Count uint64
	Org   string
	// Reported is the "Reports" column: whether threat intelligence had
	// reports for the address ("N/A" for private addresses → false here,
	// with Private true).
	Reported bool
	Private  bool
	// Synthetic marks 2013 counts the paper does not state explicitly;
	// they are chosen to satisfy every stated rank, threshold and the
	// stated total of 26,514 (see Discrepancies).
	Synthetic bool
}

// Top10 lists the most frequent incorrect-answer IPs per year, in rank
// order. 2018 is Table VIII verbatim; 2013 is reconstructed from §IV-C1.
var Top10 = map[Year][]TopAnswer{
	Y2018: {
		{Addr: "216.194.64.193", Count: 23692, Org: "Tera-byte Dot Com"},
		{Addr: "74.220.199.15", Count: 13369, Org: "Unified Layer", Reported: true},
		{Addr: "208.91.197.91", Count: 8239, Org: "Confluence Network Inc", Reported: true},
		{Addr: "141.8.225.68", Count: 1197, Org: "Rook Media GmbH", Reported: true},
		{Addr: "192.168.1.1", Count: 1014, Org: "private network", Private: true},
		{Addr: "192.168.2.1", Count: 741, Org: "private network", Private: true},
		{Addr: "114.44.34.86", Count: 734, Org: "Chunghwa Telecom"},
		{Addr: "172.30.1.254", Count: 607, Org: "private network", Private: true},
		{Addr: "10.0.0.1", Count: 548, Org: "private network", Private: true},
		{Addr: "118.166.1.6", Count: 528, Org: "Chunghwa Telecom"},
	},
	Y2013: {
		{Addr: "74.220.199.15", Count: 9651, Org: "Unified Layer", Reported: true},
		{Addr: "192.168.1.254", Count: 5200, Org: "private network", Private: true, Synthetic: true},
		{Addr: "20.20.20.20", Count: 5010, Org: "Microsoft", Synthetic: true},
		{Addr: "192.168.2.1", Count: 1500, Org: "private network", Private: true, Synthetic: true},
		{Addr: "0.0.0.0", Count: 1032, Org: "unspecified"},
		{Addr: "198.105.244.11", Count: 1010, Org: "unnamed in paper", Synthetic: true},
		{Addr: "173.192.59.63", Count: 995, Org: "SoftLayer"},
		{Addr: "221.238.203.46", Count: 811, Org: "China Unicom Tianjin"},
		{Addr: "68.87.91.199", Count: 748, Org: "Comcast"},
		{Addr: "192.168.1.1", Count: 557, Org: "private network", Private: true, Synthetic: true},
	},
}

// Top10Total is the stated sum of top-10 occurrences per year.
var Top10Total = map[Year]uint64{Y2013: 26514, Y2018: 50669}

// MalCategory is a threat-intelligence report category of Table IX.
type MalCategory string

// The categories of Table IX, in table order.
const (
	CatMalware    MalCategory = "Malware"
	CatPhishing   MalCategory = "Phishing"
	CatSpam       MalCategory = "Spam"
	CatSSHBrute   MalCategory = "SSH Bruteforce"
	CatScan       MalCategory = "Scan"
	CatBotnet     MalCategory = "Botnet"
	CatEmailBrute MalCategory = "Email Bruteforce"
)

// MalCategories lists Table IX's categories in order.
var MalCategories = []MalCategory{
	CatMalware, CatPhishing, CatSpam, CatSSHBrute, CatScan, CatBotnet, CatEmailBrute,
}

// MalCount is one cell pair of Table IX.
type MalCount struct {
	IPs uint64 // unique malicious IPs in the category
	R2  uint64 // R2 packets carrying those IPs
}

// MaliciousTable is Table IX.
var MaliciousTable = map[Year]map[MalCategory]MalCount{
	Y2013: {
		CatMalware:    {IPs: 65, R2: 11149},
		CatPhishing:   {IPs: 19, R2: 1092},
		CatSpam:       {IPs: 4, R2: 67},
		CatSSHBrute:   {IPs: 2, R2: 2},
		CatScan:       {IPs: 8, R2: 493},
		CatBotnet:     {IPs: 1, R2: 70},
		CatEmailBrute: {IPs: 1, R2: 1},
	},
	Y2018: {
		CatMalware:    {IPs: 170, R2: 23189},
		CatPhishing:   {IPs: 125, R2: 2878},
		CatSpam:       {IPs: 15, R2: 44},
		CatSSHBrute:   {IPs: 10, R2: 323},
		CatScan:       {IPs: 9, R2: 388},
		CatBotnet:     {IPs: 4, R2: 102},
		CatEmailBrute: {IPs: 2, R2: 2},
	},
}

// MaliciousTotals is the Total row of Table IX.
var MaliciousTotals = map[Year]MalCount{
	Y2013: {IPs: 100, R2: 12874},
	Y2018: {IPs: 335, R2: 26926},
}

// MalFlags is Table X: RA and AA values on the 26,926 R2 packets carrying a
// malicious IP (2018 only).
type MalFlags struct {
	RA0, RA1 uint64
	AA0, AA1 uint64
}

// MaliciousFlags2018 is Table X.
var MaliciousFlags2018 = MalFlags{
	RA0: 19534, RA1: 7392,
	AA0: 7472, AA1: 19454,
}

// NamedMalicious lists the individually named malicious answer IPs with
// their paper-reported occurrence counts. 208.91.197.91 is the Fig. 4
// example (ransomware/malware/phishing/botnet reports on Cymon).
var NamedMalicious = map[Year]map[string]uint64{
	Y2013: {"74.220.199.15": 9651},
	Y2018: {
		"74.220.199.15": 13369,
		"208.91.197.91": 8239,
		"141.8.225.68":  1197,
	},
}

// GeoCount is one country entry of the in-text malicious-resolver
// geolocation analysis (counts are R2 packets from resolvers in that
// country, per the paper's phrasing "12,874 malicious resolvers ...
// distributed over 36 countries").
type GeoCount struct {
	Country string // ISO 3166-1 alpha-2
	R2      uint64
}

// MaliciousGeo is the in-text per-country distribution of malicious
// resolvers, in the paper's order.
var MaliciousGeo = map[Year][]GeoCount{
	Y2013: {
		{"US", 12616}, {"TR", 91}, {"VG", 28}, {"PL", 24}, {"IR", 18},
		{"BR", 9}, {"KR", 8}, {"TW", 8}, {"AR", 7}, {"BG", 6},
		{"ES", 5}, {"PT", 5}, {"AT", 4}, {"CA", 4}, {"DE", 4},
		{"NL", 4}, {"VN", 4}, {"CH", 3}, {"RU", 3}, {"SA", 3},
		{"AU", 2}, {"ID", 2}, {"KE", 2}, {"SE", 2}, {"CN", 1},
		{"FR", 1}, {"GB", 1}, {"HK", 1}, {"MA", 1}, {"NA", 1},
		{"NI", 1}, {"PR", 1}, {"SG", 1}, {"TH", 1}, {"VA", 1},
		{"ZA", 1},
	},
	Y2018: {
		{"US", 21819}, {"IN", 3596}, {"HK", 714}, {"VG", 291}, {"AE", 162},
		{"CN", 146}, {"DE", 31}, {"PL", 24}, {"RU", 18}, {"BG", 16},
		{"NL", 14}, {"IE", 12}, {"AU", 11}, {"KY", 11}, {"CA", 8},
		{"FR", 7}, {"GB", 7}, {"JP", 7}, {"CH", 6}, {"PT", 6},
		{"IT", 5}, {"SG", 3}, {"TR", 3}, {"VN", 2}, {"AR", 1},
		{"AT", 1}, {"ES", 1}, {"JO", 1}, {"LT", 1}, {"MY", 1},
		{"UA", 1},
	},
}

// EmptyQuestion2018 is the §IV-B4 breakdown of the 494 R2 packets whose
// question section was empty.
type EmptyQuestionStats struct {
	Total       uint64
	WithAnswer  uint64 // 19, none correct
	PrivateNets uint64 // 14: 13 in 192.168/16, 1 in 10/8
	Private192  uint64
	Private10   uint64
	BadFormat   uint64 // 1 ("0000")
	Unroutable  uint64 // 4 (not found in Whois)
	RA1         uint64 // 184 (19 with answer + 165 without)
	RA0         uint64 // 303 stated; 7 packets unaccounted (see Discrepancies)
	AA1         uint64 // 2 (1 with incorrect answer)
	Rcodes      [10]uint64
}

// EmptyQuestion2018 holds the stated values.
var EmptyQuestion2018 = EmptyQuestionStats{
	Total:       494,
	WithAnswer:  19,
	PrivateNets: 14,
	Private192:  13,
	Private10:   1,
	BadFormat:   1,
	Unroutable:  4,
	RA1:         184,
	RA0:         303,
	AA1:         2,
	Rcodes:      [10]uint64{26, 1, 301, 2, 0, 163, 0, 0, 0, 0},
}

// NotDecoded2013 is the count of 2013 R2 packets whose dns_answer could not
// be decoded by the libpcap-based parser (§IV-C "Caveats"); they are Table
// VII's N/A form.
const NotDecoded2013 uint64 = 8764

// OpenResolverEstimates quotes §IV-B1's three estimation criteria for the
// number of open resolvers.
type OpenResolverEstimates struct {
	StrictRA1Correct uint64 // RA=1 and correct answer
	RAOnly           uint64 // RA=1 regardless of answer
	CorrectOnly      uint64 // correct answer regardless of RA
}

// Estimates per year (in-text, §IV-B1: "about 11.5 million ... 2.74
// million" etc.; exact values derive from Table IV).
var Estimates = map[Year]OpenResolverEstimates{
	Y2013: {StrictRA1Correct: 11505481, RAOnly: 12270335, CorrectOnly: 11671589},
	Y2018: {StrictRA1Correct: 2748568, RAOnly: 3002183, CorrectOnly: 2752562},
}

// SLD is the second-level domain the measurement controls.
const SLD = "ucfsealresearch.net"

// ClusterSize is the number of subdomains the authoritative server loads at
// once (§III-B: "only about 5 million subdomains could be reliably loaded").
const ClusterSize = 5000000

// TheoreticalClusters and UsedClusters quantify §III-B's subdomain-reuse
// result: reuse reduced the clusters needed from ~800 to 4.
const (
	TheoreticalClusters = 800
	UsedClusters        = 4
)

// ClusterReloadTime is the stated time to load one 5M-subdomain cluster.
const ClusterReloadTime = time.Minute
