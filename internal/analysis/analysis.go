// Package analysis implements the behavioral-analysis pipeline of §IV: it
// consumes captured R2 packets (as raw wire bytes, exactly like the
// paper's libpcap parsing), classifies each response, and produces every
// table of the evaluation — answer presence and correctness (Table III),
// RA/AA flag statistics (Tables IV, V), rcode distribution (Table VI),
// incorrect-answer forms (Table VII), top-10 incorrect addresses (Table
// VIII), threat-intelligence classification (Table IX), flags on malicious
// responses (Table X), the malicious-resolver geolocation, the §IV-B4
// empty-question breakdown, and the §IV-B1 open-resolver estimates.
//
// Responses enter in one of two forms, and both are classified by
// AddMessage. The simulation and orreplay hand AddR2 the wire bytes of
// every captured response, which it decodes. The synthetic engine hands
// AddMessage the decoded form of its per-cohort response templates
// (behavior.Template.Message), which equals the decoder's output for the
// same bytes field by field, so it skips an encode and decode per probe.
//
// The Accumulator is streaming: it holds aggregates and per-unique-value
// maps only, so a full-scale 6.5-million-response campaign runs in constant
// memory per response.
package analysis

import (
	"sort"
	"strings"
	"time"

	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/geo"
	"openresolver/internal/ipv4"
	"openresolver/internal/paperdata"
	"openresolver/internal/threatintel"
)

// Config wires the accumulator's dependencies.
type Config struct {
	Year paperdata.Year
	// Threat is the intelligence database consulted for incorrect answer
	// addresses (the paper's Cymon API).
	Threat *threatintel.DB
	// Geo locates malicious resolvers (the paper's ip2location).
	Geo *geo.Registry
}

// answerForm classifies a with-answer response per Table VII.
type answerForm uint8

const (
	formNone answerForm = iota
	formIP
	formURL
	formStr
	formNA
)

// Accumulator ingests R2 packets and accumulates every table.
type Accumulator struct {
	cfg Config

	// Tables III–VI and X and the §IV-B4 breakdown: every count no unique
	// value keys.
	tab tables

	// Table VII uniqueness and multiplicity.
	ipCounts  map[ipv4.Addr]uint64
	urlCounts nameCounts
	strCounts nameCounts

	// Malicious analysis (Tables IX and geo).
	malPackets map[paperdata.MalCategory]uint64
	malUnique  map[ipv4.Addr]paperdata.MalCategory
	malGeo     map[string]uint64

	msg dnswire.Message // AddR2's decode scratch
	// truth checks A answers against the ground truth. It keeps the
	// leading bytes of the last qname it hashed, so consecutive probe
	// names hash only their last index digit; every name is still hashed
	// from the bytes the accumulator received.
	truth dnssrv.TruthMemo
}

// tables is an accumulator's scalar state. AccumulatorState embeds it, so
// a checkpoint carries every count in one copy.
type tables struct {
	// Table III.
	Correct     uint64 `json:"correct"`
	Incorrect   uint64 `json:"incorrect"`
	Without     uint64 `json:"without"`
	Undecodable uint64 `json:"undecodable"`

	// Tables IV and V, indexed by flag value.
	RA [2]paperdata.FlagRow `json:"ra"`
	AA [2]paperdata.FlagRow `json:"aa"`

	// Table VI, indexed by the rcode's low four bits.
	RcodeW  [16]uint64 `json:"rcode_w"`
	RcodeWO [16]uint64 `json:"rcode_wo"`

	// Table VII's N/A form, which keeps no values.
	NAPackets uint64 `json:"na_packets"`

	// Table X, and the malicious packets with a nonzero rcode (§IV-C3
	// expects none).
	MalFlags    paperdata.MalFlags `json:"mal_flags"`
	MalNonZeroR uint64             `json:"mal_nonzero_rcode"`

	// §IV-B4 empty-question breakdown.
	EQ paperdata.EmptyQuestionStats `json:"empty_question"`
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator(cfg Config) *Accumulator {
	return &Accumulator{
		cfg:        cfg,
		ipCounts:   make(map[ipv4.Addr]uint64),
		urlCounts:  make(nameCounts),
		strCounts:  make(nameCounts),
		malPackets: make(map[paperdata.MalCategory]uint64),
		malUnique:  make(map[ipv4.Addr]paperdata.MalCategory),
		malGeo:     make(map[string]uint64),
	}
}

// AddR2 ingests one response. src is the responding resolver's address
// (the prospective open resolver); wire is the raw DNS payload. The payload
// is decoded into the accumulator's scratch message, whose sections, RDATA
// buffers and name arena every call reuses (dnswire.UnpackInto), so no
// packet allocates a message of its own.
func (a *Accumulator) AddR2(src ipv4.Addr, wire []byte) {
	if err := dnswire.UnpackInto(&a.msg, wire); err != nil {
		a.tab.Undecodable++
		return
	}
	a.AddMessage(src, &a.msg)
}

// Merge folds b's accumulated state into a, leaving b unchanged. Counters
// and multiplicity maps are summed; the unique-malicious map is unioned,
// which is exact because its values are derived from the key alone
// (Dominant() of the address's threat record). No accumulator state is
// order-sensitive beyond that, so splitting a packet stream at arbitrary
// boundaries, accumulating the pieces independently, and merging the
// shard accumulators in any order reproduces the single-accumulator
// result exactly — the invariant the parallel campaign engine relies on.
func (a *Accumulator) Merge(b *Accumulator) {
	a.tab.Correct += b.tab.Correct
	a.tab.Incorrect += b.tab.Incorrect
	a.tab.Without += b.tab.Without
	a.tab.Undecodable += b.tab.Undecodable
	for i := range a.tab.RA {
		a.tab.RA[i].Without += b.tab.RA[i].Without
		a.tab.RA[i].Correct += b.tab.RA[i].Correct
		a.tab.RA[i].Incorr += b.tab.RA[i].Incorr
		a.tab.AA[i].Without += b.tab.AA[i].Without
		a.tab.AA[i].Correct += b.tab.AA[i].Correct
		a.tab.AA[i].Incorr += b.tab.AA[i].Incorr
	}
	for i := range a.tab.RcodeW {
		a.tab.RcodeW[i] += b.tab.RcodeW[i]
		a.tab.RcodeWO[i] += b.tab.RcodeWO[i]
	}
	for k, n := range b.ipCounts {
		a.ipCounts[k] += n
	}
	for k, n := range b.urlCounts {
		a.urlCounts.add(k, *n)
	}
	for k, n := range b.strCounts {
		a.strCounts.add(k, *n)
	}
	a.tab.NAPackets += b.tab.NAPackets
	for k, n := range b.malPackets {
		a.malPackets[k] += n
	}
	for k, v := range b.malUnique {
		a.malUnique[k] = v
	}
	a.tab.MalFlags.RA0 += b.tab.MalFlags.RA0
	a.tab.MalFlags.RA1 += b.tab.MalFlags.RA1
	a.tab.MalFlags.AA0 += b.tab.MalFlags.AA0
	a.tab.MalFlags.AA1 += b.tab.MalFlags.AA1
	for k, n := range b.malGeo {
		a.malGeo[k] += n
	}
	a.tab.MalNonZeroR += b.tab.MalNonZeroR
	a.tab.EQ.Total += b.tab.EQ.Total
	a.tab.EQ.WithAnswer += b.tab.EQ.WithAnswer
	a.tab.EQ.PrivateNets += b.tab.EQ.PrivateNets
	a.tab.EQ.Private192 += b.tab.EQ.Private192
	a.tab.EQ.Private10 += b.tab.EQ.Private10
	a.tab.EQ.BadFormat += b.tab.EQ.BadFormat
	a.tab.EQ.Unroutable += b.tab.EQ.Unroutable
	a.tab.EQ.RA1 += b.tab.EQ.RA1
	a.tab.EQ.RA0 += b.tab.EQ.RA0
	a.tab.EQ.AA1 += b.tab.EQ.AA1
	for i := range a.tab.EQ.Rcodes {
		a.tab.EQ.Rcodes[i] += b.tab.EQ.Rcodes[i]
	}
}

// AddMessage ingests an already-decoded response. It keeps nothing of msg
// past the call but owned copies, so msg may be decoding scratch.
func (a *Accumulator) AddMessage(src ipv4.Addr, msg *dnswire.Message) {
	q, hasQ := msg.Question1()
	if !hasQ {
		a.addEmptyQuestion(msg)
		return
	}

	form, addr, correct := a.classifyAnswer(msg, q.Name)

	flagIdx := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	ri, ai := flagIdx(msg.Header.RA), flagIdx(msg.Header.AA)
	rc := msg.Header.Rcode & 0xF

	switch {
	case form == formNone:
		a.tab.Without++
		a.tab.RA[ri].Without++
		a.tab.AA[ai].Without++
		a.tab.RcodeWO[rc]++
	case correct:
		a.tab.Correct++
		a.tab.RA[ri].Correct++
		a.tab.AA[ai].Correct++
		a.tab.RcodeW[rc]++
	default:
		a.tab.Incorrect++
		a.tab.RA[ri].Incorr++
		a.tab.AA[ai].Incorr++
		a.tab.RcodeW[rc]++
		a.addIncorrect(src, msg, form, addr)
	}
}

// classifyAnswer determines the Table VII form of the answer section and,
// for IP answers, whether the address matches the ground truth.
func (a *Accumulator) classifyAnswer(msg *dnswire.Message, qname string) (answerForm, ipv4.Addr, bool) {
	if len(msg.Answers) == 0 {
		return formNone, 0, false
	}
	var sawMalformed, sawCNAME, sawTXT bool
	for i := range msg.Answers {
		rr := &msg.Answers[i]
		switch {
		case rr.Type == dnswire.TypeA && !rr.Malformed:
			addr := ipv4.Addr(rr.A)
			return formIP, addr, a.truth.IsTruthAddr(addr, qname)
		case rr.Type == dnswire.TypeA && rr.Malformed:
			sawMalformed = true
		case rr.Type == dnswire.TypeCNAME:
			sawCNAME = true
		case rr.Type == dnswire.TypeTXT:
			sawTXT = true
		}
	}
	switch {
	case sawCNAME:
		return formURL, 0, false
	case sawTXT:
		return formStr, 0, false
	case sawMalformed:
		return formNA, 0, false
	}
	// An answer section with only exotic record types: treat as the string
	// form with an empty value, the closest Table VII bucket.
	return formStr, 0, false
}

// addIncorrect tracks form multiplicities and runs the threat-intel and
// geolocation analysis on incorrect answers.
func (a *Accumulator) addIncorrect(src ipv4.Addr, msg *dnswire.Message, form answerForm, addr ipv4.Addr) {
	switch form {
	case formIP:
		a.ipCounts[addr]++
		if a.cfg.Threat != nil {
			if rec, ok := a.cfg.Threat.Lookup(addr); ok {
				cat := rec.Dominant()
				a.malPackets[cat]++
				a.malUnique[addr] = cat
				if msg.Header.RA {
					a.tab.MalFlags.RA1++
				} else {
					a.tab.MalFlags.RA0++
				}
				if msg.Header.AA {
					a.tab.MalFlags.AA1++
				} else {
					a.tab.MalFlags.AA0++
				}
				if msg.Header.Rcode != dnswire.RcodeNoError {
					a.tab.MalNonZeroR++
				}
				country := "ZZ"
				if a.cfg.Geo != nil {
					country = a.cfg.Geo.Country(src)
				}
				a.malGeo[country]++
			}
		}
	case formURL:
		if t, ok := firstTarget(msg, dnswire.TypeCNAME); ok {
			a.urlCounts.add(t, 1)
		}
	case formStr:
		t, _ := firstTarget(msg, dnswire.TypeTXT)
		a.strCounts.add(t, 1)
	case formNA:
		a.tab.NAPackets++
	}
}

// nameCounts counts packets per answer target. Decoded targets alias their
// message's arena (dnswire.UnpackInto), and a map assignment may install
// the live key operand even when the key is already present, so the map is
// never assigned through a caller's key: a count lives behind a pointer
// that a lookup reaches, and only a new target is stored, as an owned copy.
// Counting a seen target therefore allocates nothing.
type nameCounts map[string]*uint64

// add adds n to k's count.
func (m nameCounts) add(k string, n uint64) {
	if c := m[k]; c != nil {
		*c += n
		return
	}
	c := new(uint64)
	*c = n
	m[strings.Clone(k)] = c
}

func firstTarget(msg *dnswire.Message, t dnswire.Type) (string, bool) {
	for _, rr := range msg.Answers {
		if rr.Type == t && !rr.Malformed {
			return rr.Target, true
		}
	}
	return "", false
}

// The RFC 1918 blocks the §IV-B4 breakdown reports separately.
var (
	private192 = ipv4.MustParseBlock("192.168.0.0/16")
	private10  = ipv4.MustParseBlock("10.0.0.0/8")
)

// addEmptyQuestion ingests a §IV-B4 response with no question section.
func (a *Accumulator) addEmptyQuestion(msg *dnswire.Message) {
	a.tab.EQ.Total++
	if msg.Header.RA {
		a.tab.EQ.RA1++
	} else {
		a.tab.EQ.RA0++
	}
	if msg.Header.AA {
		a.tab.EQ.AA1++
	}
	// The breakdown has Table VI's ten rcode columns; a corrupted response
	// can carry rcode 10–15, which is counted in Total but in no column.
	if rc := int(msg.Header.Rcode & 0xF); rc < len(a.tab.EQ.Rcodes) {
		a.tab.EQ.Rcodes[rc]++
	}
	if len(msg.Answers) == 0 {
		return
	}
	a.tab.EQ.WithAnswer++
	rr := msg.Answers[0]
	switch {
	case rr.Type == dnswire.TypeA && !rr.Malformed:
		addr := ipv4.Addr(rr.A)
		switch {
		case private192.Contains(addr):
			a.tab.EQ.PrivateNets++
			a.tab.EQ.Private192++
		case private10.Contains(addr):
			a.tab.EQ.PrivateNets++
			a.tab.EQ.Private10++
		default:
			// "Addresses which could not be found in Whois."
			if a.cfg.Geo == nil || a.cfg.Geo.Country(addr) == "ZZ" {
				a.tab.EQ.Unroutable++
			}
		}
	default:
		a.tab.EQ.BadFormat++
	}
}

// Report finalizes the accumulation into a full report. camp carries the
// campaign-level counters (Table II) measured by the prober and the
// authoritative server.
func (a *Accumulator) Report(camp CampaignCounts) *Report {
	r := &Report{
		Year:        a.cfg.Year,
		Campaign:    camp,
		Undecodable: a.tab.Undecodable,
		Correctness: paperdata.Correctness{
			R2:      a.tab.Correct + a.tab.Incorrect + a.tab.Without,
			Without: a.tab.Without,
			Correct: a.tab.Correct,
			Incorr:  a.tab.Incorrect,
		},
		RA:     paperdata.FlagTable{Flag0: a.tab.RA[0], Flag1: a.tab.RA[1]},
		AA:     paperdata.FlagTable{Flag0: a.tab.AA[0], Flag1: a.tab.AA[1]},
		EmptyQ: a.tab.EQ,
	}
	copy(r.Rcode.With[:], a.tab.RcodeW[:10])
	copy(r.Rcode.Without[:], a.tab.RcodeWO[:10])

	// Table VII.
	var ipPkts uint64
	for _, n := range a.ipCounts {
		ipPkts += n
	}
	var urlPkts uint64
	for _, n := range a.urlCounts {
		urlPkts += *n
	}
	var strPkts uint64
	for _, n := range a.strCounts {
		strPkts += *n
	}
	r.Forms = paperdata.IncorrectForms{
		IP:  paperdata.FormCount{Packets: ipPkts, Unique: uint64(len(a.ipCounts))},
		URL: paperdata.FormCount{Packets: urlPkts, Unique: uint64(len(a.urlCounts))},
		Str: paperdata.FormCount{Packets: strPkts, Unique: uint64(len(a.strCounts))},
		NA:  paperdata.FormCount{Packets: a.tab.NAPackets},
	}

	// Table VIII: top-10 incorrect addresses.
	type pair struct {
		addr ipv4.Addr
		n    uint64
	}
	pairs := make([]pair, 0, len(a.ipCounts))
	for addr, n := range a.ipCounts {
		pairs = append(pairs, pair{addr, n})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].n != pairs[j].n {
			return pairs[i].n > pairs[j].n
		}
		return pairs[i].addr < pairs[j].addr
	})
	for i := 0; i < len(pairs) && i < 10; i++ {
		ta := paperdata.TopAnswer{
			Addr:    pairs[i].addr.String(),
			Count:   pairs[i].n,
			Private: ipv4.IsPrivate(pairs[i].addr),
		}
		if a.cfg.Geo != nil {
			ta.Org = a.cfg.Geo.Org(pairs[i].addr)
		}
		if a.cfg.Threat != nil {
			_, ta.Reported = a.cfg.Threat.Lookup(pairs[i].addr)
		}
		r.Top10 = append(r.Top10, ta)
	}

	// Tables IX and X.
	r.Malicious = make(map[paperdata.MalCategory]paperdata.MalCount)
	for addr, cat := range a.malUnique {
		mc := r.Malicious[cat]
		mc.IPs++
		r.Malicious[cat] = mc
		_ = addr
	}
	for cat, pkts := range a.malPackets {
		mc := r.Malicious[cat]
		mc.R2 = pkts
		r.Malicious[cat] = mc
		r.MaliciousTotal.R2 += pkts
	}
	r.MaliciousTotal.IPs = uint64(len(a.malUnique))
	r.MalFlags = a.tab.MalFlags
	r.MalNonZeroRcode = a.tab.MalNonZeroR

	// Geolocation, sorted by count descending then country.
	for c, n := range a.malGeo {
		r.MaliciousGeo = append(r.MaliciousGeo, paperdata.GeoCount{Country: c, R2: n})
	}
	sort.Slice(r.MaliciousGeo, func(i, j int) bool {
		if r.MaliciousGeo[i].R2 != r.MaliciousGeo[j].R2 {
			return r.MaliciousGeo[i].R2 > r.MaliciousGeo[j].R2
		}
		return r.MaliciousGeo[i].Country < r.MaliciousGeo[j].Country
	})

	// §IV-B1 estimates.
	r.Estimates = paperdata.OpenResolverEstimates{
		StrictRA1Correct: a.tab.RA[1].Correct,
		RAOnly:           a.tab.RA[1].Total(),
		CorrectOnly:      a.tab.Correct,
	}
	return r
}

// CampaignCounts is the Table II row measured by a run.
type CampaignCounts struct {
	Q1, Q2, R1, R2 uint64
	Duration       time.Duration
	PacketsPerSec  uint64
	// SampleShift records the scaling of the run (0 = full scale).
	SampleShift uint8
}

// Report holds every regenerated table of the evaluation.
type Report struct {
	Year     paperdata.Year
	Campaign CampaignCounts

	Correctness    paperdata.Correctness // Table III
	RA             paperdata.FlagTable   // Table IV
	AA             paperdata.FlagTable   // Table V
	Rcode          paperdata.RcodeRow    // Table VI
	Forms          paperdata.IncorrectForms
	Top10          []paperdata.TopAnswer // Table VIII
	Malicious      map[paperdata.MalCategory]paperdata.MalCount
	MaliciousTotal paperdata.MalCount // Table IX totals
	MalFlags       paperdata.MalFlags // Table X
	MaliciousGeo   []paperdata.GeoCount
	EmptyQ         paperdata.EmptyQuestionStats
	Estimates      paperdata.OpenResolverEstimates

	// MalNonZeroRcode counts malicious packets with a nonzero rcode; the
	// paper found zero (§IV-C3).
	MalNonZeroRcode uint64
	// Undecodable counts R2 packets the wire parser rejected outright.
	Undecodable uint64
}
