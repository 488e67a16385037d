package population

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"openresolver/internal/behavior"
	"openresolver/internal/dist"
	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
	"openresolver/internal/paperdata"
)

// builder compiles the paper's tables into full-scale cohorts held as
// compact records, then materialises the Cohort values that survive
// scaling.
type builder struct {
	cfg  Config
	feed feedSource

	records []record
	groups  []group
	last    int // the group of the previous record, looked up first
	segs    []payloadSeg
	// avoid lists the answer addresses the synthetic IP tail must not
	// reuse: every feed address and the benign top-10.
	avoid [][]ipv4.Addr
	// tailSeg indexes the synthetic IP tail's segment (0 until built);
	// tail holds its drawn addresses.
	tailSeg int
	tail    []ipv4.Addr
}

// feedSource is the slice of threatintel.Feed the builder needs.
type feedSource interface {
	Addresses(cat paperdata.MalCategory) []ipv4.Addr
}

// record is one full-scale cohort in compact form. Its class, category,
// answer form and country are its group's, its flags are flagCells[cell],
// and its answer address or name is the value of payload.
type record struct {
	count   uint64
	payload uint32
	// Only malicious groups vary by category and country, so a population
	// has far fewer than 2^16 groups.
	group uint16
	cell  uint8
	rcode dnswire.Rcode
}

// groupKey is the unit of the first scaling level (see scale).
type groupKey struct {
	class    Class
	category paperdata.MalCategory
	answer   behavior.AnswerKind
	country  string
}

type group struct {
	groupKey
	total uint64 // packets over the group's records
}

// payloadSeg is a stretch of the payload space: n answer payloads of one
// form, numbered from first.
type payloadSeg struct {
	first  uint32
	n      int
	answer behavior.AnswerKind
	cat    paperdata.MalCategory
	// A payload streamed across the flag cells carries counts[i] packets,
	// or spread.At(i) when counts is nil.
	counts []uint64
	spread dist.Spread
	// Payload i answers with addrs[i], the i-th drawn tail address when
	// tail is set, or the name names[i], past which format is filled
	// with i. A segment with none of these carries no value.
	addrs  []ipv4.Addr
	tail   bool
	names  []string
	format string
}

func (s *payloadSeg) count(i int) uint64 {
	if s.counts != nil {
		return s.counts[i]
	}
	return s.spread.At(i)
}

// addSeg appends s to the payload space and returns its segment index.
func (b *builder) addSeg(s payloadSeg) int {
	if n := len(b.segs); n > 0 {
		s.first = b.segs[n-1].first + uint32(b.segs[n-1].n)
	}
	b.segs = append(b.segs, s)
	return len(b.segs) - 1
}

// payloadValue returns payload p's answer address or name.
func (b *builder) payloadValue(p uint32) (ipv4.Addr, string) {
	k := sort.Search(len(b.segs), func(k int) bool { return b.segs[k].first > p }) - 1
	s := &b.segs[k]
	i := int(p - s.first)
	switch {
	case s.tail:
		return b.tail[i], ""
	case s.addrs != nil:
		return s.addrs[i], ""
	case i < len(s.names):
		return 0, s.names[i]
	case s.format != "":
		return 0, fmt.Sprintf(s.format, i)
	}
	return 0, ""
}

// cellOf is the flagCells index of an (RA, AA) pair.
func cellOf(ra, aa bool) uint8 {
	var c uint8
	if ra {
		c = 2
	}
	if aa {
		c++
	}
	return c
}

func (b *builder) build() error {
	y := b.cfg.Year
	b.records = make([]record, 0, b.estimateCohorts())
	b.addSeg(payloadSeg{n: 1}) // payload 0: no answer value

	ra := paperdata.RATable[y]
	aa := paperdata.ReconciledAA(y)

	// ---- Correct class -------------------------------------------------
	corrCells, err := joinCells(
		[2]uint64{ra.Flag0.Correct, ra.Flag1.Correct},
		[2]uint64{aa.Flag0.Correct, aa.Flag1.Correct})
	if err != nil {
		return fmt.Errorf("correct class: %w", err)
	}
	for i, n := range corrCells {
		if n == 0 {
			continue
		}
		b.emit(n, groupKey{class: ClassCorrect, answer: behavior.AnswerTruth}, 0, uint8(i), dnswire.RcodeNoError)
	}

	// ---- Incorrect classes (malicious carved out first) -----------------
	incorrCells, err := joinCells(
		[2]uint64{ra.Flag0.Incorr, ra.Flag1.Incorr},
		[2]uint64{aa.Flag0.Incorr, aa.Flag1.Incorr})
	if err != nil {
		return fmt.Errorf("incorrect class: %w", err)
	}
	malCells, err := b.maliciousCells(incorrCells)
	if err != nil {
		return err
	}
	nonmalCells := incorrCells
	for i := range nonmalCells {
		if malCells[i] > nonmalCells[i] {
			return fmt.Errorf("population: malicious cell %d exceeds incorrect cell", i)
		}
		nonmalCells[i] -= malCells[i]
	}
	if err := b.buildMalicious(malCells); err != nil {
		return err
	}
	if err := b.buildNonMalIncorrect(nonmalCells); err != nil {
		return err
	}

	// ---- No-answer class -------------------------------------------------
	noneCells, err := joinCells(
		[2]uint64{ra.Flag0.Without, ra.Flag1.Without},
		[2]uint64{aa.Flag0.Without, aa.Flag1.Without})
	if err != nil {
		return fmt.Errorf("no-answer class: %w", err)
	}
	if err := b.buildNoAnswer(noneCells); err != nil {
		return err
	}

	// ---- Empty-question responders (2018) --------------------------------
	if paperdata.Campaigns[y].R2EmptyQ > 0 {
		if err := b.buildEmptyQuestion(); err != nil {
			return err
		}
	}
	return nil
}

// emit appends one record to group k, assigning k the next group id on
// its first appearance.
func (b *builder) emit(n uint64, k groupKey, payload uint32, cell uint8, rcode dnswire.Rcode) {
	g := b.last
	if g >= len(b.groups) || b.groups[g].groupKey != k {
		g = slices.IndexFunc(b.groups, func(x group) bool { return x.groupKey == k })
		if g < 0 {
			g = len(b.groups)
			b.groups = append(b.groups, group{groupKey: k})
		}
		b.last = g
	}
	b.groups[g].total += n
	b.records = append(b.records, record{count: n, payload: payload, group: uint16(g), cell: cell, rcode: rcode})
}

// stream emits the records of one class whose payload stream, segments
// from through to-1 in order, runs against ann, a (cell, rcode, country)
// run stream of the same total: one record for every stretch over which
// neither stream changes run.
func (b *builder) stream(class Class, from, to int, ann []run) error {
	ai := 0
	var used uint64 // consumed from ann[ai]
	for si := from; si < to; si++ {
		s := &b.segs[si]
		for i := 0; i < s.n; i++ {
			for left := s.count(i); left > 0; {
				if ai == len(ann) {
					return fmt.Errorf("population: %s payload stream exceeds its flag cells", class)
				}
				a := ann[ai]
				take := min(left, a.n-used)
				b.emit(take, groupKey{class, s.cat, s.answer, a.country}, s.first+uint32(i), a.cell, a.rcode)
				left -= take
				used += take
				if used == a.n {
					ai++
					used = 0
				}
			}
		}
	}
	if ai != len(ann) {
		return fmt.Errorf("population: %s payload stream falls short of its flag cells", class)
	}
	return nil
}

// estimateCohorts bounds the record count from the paper tables before
// any stream is built: one record per unique payload (feed address,
// URL/TXT name, tail IP) plus slack for the fixed-size classes and the
// splits at cell and rcode boundaries, so the record slice is allocated
// once.
func (b *builder) estimateCohorts() int {
	y := b.cfg.Year
	n := 256 // correct / no-answer / empty-question cohorts, split slack
	for _, cat := range paperdata.MalCategories {
		n += int(paperdata.MaliciousTable[y][cat].IPs)
	}
	forms := paperdata.IncorrectFormsByYear[y]
	n += int(forms.URL.Unique) + int(paperdata.ReconciledStrUnique(y))
	_, tailUnique := paperdata.TailIPStats(y)
	return n + int(tailUnique)
}

// joinCells runs the northwest-corner join of one class's RA and AA
// marginals and flattens the 2×2 result in flagCells order.
func joinCells(rows, cols [2]uint64) ([4]uint64, error) {
	m, err := dist.Transport(rows[:], cols[:])
	if err != nil {
		return [4]uint64{}, err
	}
	return [4]uint64{m[0][0], m[0][1], m[1][0], m[1][1]}, nil
}

// maliciousCells computes the malicious (RA, AA) cells: from Table X for
// 2018; apportioned over the incorrect cells for 2013 (the paper gives no
// 2013 flag breakdown).
func (b *builder) maliciousCells(incorrCells [4]uint64) ([4]uint64, error) {
	y := b.cfg.Year
	total := paperdata.MaliciousTotals[y].R2
	if y == paperdata.Y2018 {
		mf := paperdata.MaliciousFlags2018
		cells, err := joinCells([2]uint64{mf.RA0, mf.RA1}, [2]uint64{mf.AA0, mf.AA1})
		if err != nil {
			return [4]uint64{}, fmt.Errorf("malicious class: %w", err)
		}
		return cells, nil
	}
	alloc, err := dist.LargestRemainder(incorrCells[:], total)
	if err != nil {
		return [4]uint64{}, fmt.Errorf("malicious class: %w", err)
	}
	var out [4]uint64
	copy(out[:], alloc)
	return out, nil
}

// maliciousSegs adds the ordered (address, category) payload stream of
// Table IX, one segment per category: named addresses carry their
// §IV-C1 counts; synthetic feed addresses share the category remainder
// near-uniformly.
func (b *builder) maliciousSegs() error {
	y := b.cfg.Year
	named := make(map[ipv4.Addr]uint64, len(paperdata.NamedMalicious[y]))
	for s, n := range paperdata.NamedMalicious[y] {
		named[ipv4.MustParseAddr(s)] = n
	}
	for _, cat := range paperdata.MalCategories {
		want := paperdata.MaliciousTable[y][cat]
		addrs := b.feed.Addresses(cat)
		if uint64(len(addrs)) != want.IPs {
			return fmt.Errorf("population: feed has %d %s addresses, want %d", len(addrs), cat, want.IPs)
		}
		budget := want.R2
		counts := make([]uint64, len(addrs))
		tail := 0
		for i, a := range addrs {
			if n, ok := named[a]; ok {
				counts[i] = n
				budget -= n
			} else {
				tail++
			}
		}
		spread, err := dist.SpreadUnique(budget, tail)
		if err != nil {
			return fmt.Errorf("population: %s spread: %w", cat, err)
		}
		k := 0
		for i, a := range addrs {
			if _, ok := named[a]; !ok {
				counts[i] = spread.At(k)
				k++
			}
		}
		b.avoid = append(b.avoid, addrs)
		b.addSeg(payloadSeg{n: len(addrs), answer: behavior.AnswerFixed, cat: cat, counts: counts, addrs: addrs})
	}
	return nil
}

// countryRuns builds the malicious-resolver placement stream.
func countryRuns(y paperdata.Year) []run {
	var runs []run
	for _, g := range paperdata.MaliciousGeo[y] {
		runs = append(runs, run{n: g.R2, country: g.Country})
	}
	return runs
}

// buildMalicious emits the malicious cohorts: fixed malicious answers,
// NoError (§IV-C3, the zero rcode of every country run), flags per Table
// X cells, placed per the geo distribution.
func (b *builder) buildMalicious(cells [4]uint64) error {
	from := len(b.segs)
	if err := b.maliciousSegs(); err != nil {
		return err
	}
	byCellCountry, err := splitStream(cells[:], countryRuns(b.cfg.Year))
	if err != nil {
		return fmt.Errorf("malicious countries: %w", err)
	}
	return b.stream(ClassMalicious, from, len(b.segs), byCellCountry)
}

// nonMalSegs adds the ordered payload stream of the non-malicious
// incorrect class: benign top-10 IPs, URL form, string form, the 2013 N/A
// form, then the synthetic IP long tail.
func (b *builder) nonMalSegs() error {
	y := b.cfg.Year
	forms := paperdata.IncorrectFormsByYear[y]
	top := paperdata.BenignTop10(y)
	topAddrs := make([]ipv4.Addr, len(top))
	topCounts := make([]uint64, len(top))
	for i, t := range top {
		topAddrs[i] = ipv4.MustParseAddr(t.Addr)
		topCounts[i] = t.Count
	}
	b.avoid = append(b.avoid, topAddrs)
	b.addSeg(payloadSeg{n: len(top), answer: behavior.AnswerFixed, counts: topCounts, addrs: topAddrs})

	urlN := int(forms.URL.Unique)
	url, err := dist.SpreadUnique(forms.URL.Packets, urlN)
	if err != nil {
		return fmt.Errorf("url form: %w", err)
	}
	b.addSeg(payloadSeg{n: urlN, answer: behavior.AnswerCNAME, spread: url,
		names: []string{"u.dcoin.co"}, format: "url%03d.redirect.example"})

	strN := int(paperdata.ReconciledStrUnique(y))
	str, err := dist.SpreadUnique(forms.Str.Packets, strN)
	if err != nil {
		return fmt.Errorf("string form: %w", err)
	}
	b.addSeg(payloadSeg{n: strN, answer: behavior.AnswerTXT, spread: str,
		names: []string{"wild", "ff", "OK", "04b400000000"}, format: "str%02d"})

	if forms.NA.Packets > 0 {
		b.addSeg(payloadSeg{n: 1, answer: behavior.AnswerMalformed, counts: []uint64{forms.NA.Packets}})
	}

	tailPackets, tailUnique := paperdata.TailIPStats(y)
	tail, err := dist.SpreadUnique(tailPackets, int(tailUnique))
	if err != nil {
		return fmt.Errorf("ip tail: %w", err)
	}
	b.tailSeg = b.addSeg(payloadSeg{n: int(tailUnique), answer: behavior.AnswerFixed, spread: tail, tail: true})
	return nil
}

// drawTail draws the synthetic IP tail's addresses, in tail order, up to
// the last one a kept record answers with. Each is a fresh public
// address: outside reserved space (so it is never a truthful private
// answer by accident), outside the ground-truth range, and unused so
// Table VII's unique counts hold. The draws come from one seeded stream
// whatever the scale, so a tail payload has the same address at every
// scale.
func (b *builder) drawTail(keep []record) {
	s := &b.segs[b.tailSeg]
	need := 0
	for _, r := range keep {
		if i := int(r.payload) - int(s.first); i >= 0 && i < s.n {
			need = max(need, i+1)
		}
	}
	if need == 0 {
		return
	}
	size := need
	for _, addrs := range b.avoid {
		size += len(addrs)
	}
	used := make(map[ipv4.Addr]struct{}, size)
	for _, addrs := range b.avoid {
		for _, a := range addrs {
			used[a] = struct{}{}
		}
	}
	rng := rand.New(rand.NewSource(b.cfg.Seed ^ 0x706F70))
	reserved := ipv4.NewReservedBlocklist()
	truthRange := ipv4.MustParseBlock("96.0.0.0/6")
	b.tail = make([]ipv4.Addr, need)
	for i := range b.tail {
		for {
			a := ipv4.Addr(rng.Uint32())
			if reserved.Contains(a) || truthRange.Contains(a) {
				continue
			}
			if _, dup := used[a]; dup {
				continue
			}
			used[a] = struct{}{}
			b.tail[i] = a
			break
		}
	}
}

// nonZeroWithRcodes returns the reconciled nonzero with-answer rcode
// counts in rcode order.
func nonZeroWithRcodes(y paperdata.Year) []run {
	rc := paperdata.ReconciledRcode(y)
	var runs []run
	for code := 1; code < 10; code++ {
		if rc.With[code] > 0 {
			runs = append(runs, run{n: rc.With[code], rcode: dnswire.Rcode(code)})
		}
	}
	return runs
}

// buildNonMalIncorrect emits the non-malicious incorrect cohorts: payloads
// streamed across the flag cells, nonzero rcodes layered by capacity with
// NoError filling the rest.
func (b *builder) buildNonMalIncorrect(cells [4]uint64) error {
	from := len(b.segs)
	if err := b.nonMalSegs(); err != nil {
		return err
	}

	// rcode allocation: nonzero rcodes spread by capacity, NoError fills.
	capacity := append([]uint64(nil), cells[:]...)
	var perCell [4][]run
	for _, rz := range nonZeroWithRcodes(b.cfg.Year) {
		alloc, err := fillByCapacity(capacity, rz.n)
		if err != nil {
			return fmt.Errorf("rcode %v: %w", rz.rcode, err)
		}
		for i, n := range alloc {
			if n > 0 {
				perCell[i] = append(perCell[i], run{n: n, cell: uint8(i), rcode: rz.rcode})
			}
		}
	}
	var ann []run
	for i, rem := range capacity {
		if rem > 0 {
			// NoError leads each cell so the nonzero rcodes land on the tail
			// of the payload stream (the long-tail IPs), keeping the named
			// top-10 answers NoError as the paper observes for the
			// malicious ones.
			ann = append(ann, run{n: rem, cell: uint8(i), rcode: dnswire.RcodeNoError})
		}
		ann = append(ann, perCell[i]...)
	}
	return b.stream(ClassIncorrect, from, len(b.segs), ann)
}

// buildNoAnswer emits the no-answer cohorts with Table VI's W/O rcodes
// layered across the flag cells.
func (b *builder) buildNoAnswer(cells [4]uint64) error {
	rc := paperdata.ReconciledRcode(b.cfg.Year)
	capacity := append([]uint64(nil), cells[:]...)
	perCell := make([][]run, 4)
	for code := 0; code < 10; code++ {
		if rc.Without[code] == 0 {
			continue
		}
		alloc, err := fillByCapacity(capacity, rc.Without[code])
		if err != nil {
			return fmt.Errorf("no-answer rcode %d: %w", code, err)
		}
		for i, n := range alloc {
			if n > 0 {
				perCell[i] = append(perCell[i], run{n: n, rcode: dnswire.Rcode(code)})
			}
		}
	}
	for i, rem := range capacity {
		if rem != 0 {
			return fmt.Errorf("no-answer cell %d under-filled by %d", i, rem)
		}
		for _, r := range perCell[i] {
			b.emit(r.n, groupKey{class: ClassNoAnswer, answer: behavior.AnswerNone}, 0, uint8(i), r.rcode)
		}
	}
	return nil
}

// buildEmptyQuestion emits the §IV-B4 cohorts (2018): responses with no
// question section.
func (b *builder) buildEmptyQuestion() error {
	e := paperdata.ReconciledEmptyQuestion()

	// The with-answer payloads, in emission order: private 192.168/16
	// addresses, 10.1.1.1, then unroutable 240/4 addresses; and the one
	// badly formatted TXT answer.
	addrs := make([]ipv4.Addr, 0, int(max(e.Private192, 1)+1+e.Unroutable))
	addrs = append(addrs, ipv4.MustParseAddr("192.168.0.1"))
	for i := uint64(1); i < e.Private192; i++ {
		addrs = append(addrs, ipv4.MustParseAddr("192.168.0.1")+ipv4.Addr(i*256))
	}
	addrs = append(addrs, ipv4.MustParseAddr("10.1.1.1"))
	for i := uint64(0); i < e.Unroutable; i++ {
		addrs = append(addrs, ipv4.MustParseAddr("240.10.0.1")+ipv4.Addr(i))
	}
	fixed := b.segs[b.addSeg(payloadSeg{n: len(addrs), answer: behavior.AnswerFixed, addrs: addrs})].first
	txt := b.segs[b.addSeg(payloadSeg{n: 1, answer: behavior.AnswerTXT, names: []string{"0000"}})].first

	mk := func(count uint64, ra, aa bool, rcode dnswire.Rcode, kind behavior.AnswerKind, payload uint32) {
		if count == 0 {
			return
		}
		b.emit(count, groupKey{class: ClassEmptyQuestion, answer: kind}, payload, cellOf(ra, aa), rcode)
	}

	// The 19 with-answer packets: all RA=1, rcode NoError; one of them has
	// AA=1 (the single with-answer AA1 packet of the section).
	next := fixed
	mk(1, true, true, dnswire.RcodeNoError, behavior.AnswerFixed, next)
	for i := uint64(1); i < e.Private192; i++ {
		next++
		mk(1, true, false, dnswire.RcodeNoError, behavior.AnswerFixed, next)
	}
	next++
	mk(e.Private10, true, false, dnswire.RcodeNoError, behavior.AnswerFixed, next)
	mk(e.BadFormat, true, false, dnswire.RcodeNoError, behavior.AnswerTXT, txt)
	for i := uint64(0); i < e.Unroutable; i++ {
		next++
		mk(1, true, false, dnswire.RcodeNoError, behavior.AnswerFixed, next)
	}

	// No-answer packets: the remaining RA1 (165, one with AA=1), then RA0.
	// rcode stream: whatever NoError remains after the with-answer packets,
	// then the error codes.
	var rcodeRuns []run
	if e.Rcodes[0] > e.WithAnswer {
		rcodeRuns = append(rcodeRuns, run{n: e.Rcodes[0] - e.WithAnswer, rcode: dnswire.RcodeNoError})
	}
	for code := 1; code < 10; code++ {
		if e.Rcodes[code] > 0 {
			rcodeRuns = append(rcodeRuns, run{n: e.Rcodes[code], rcode: dnswire.Rcode(code)})
		}
	}
	ra1Rest := e.RA1 - e.WithAnswer
	segs, err := splitStream([]uint64{ra1Rest, e.RA0}, rcodeRuns)
	if err != nil {
		return fmt.Errorf("empty-question rcodes: %w", err)
	}
	aa1Left := true // one no-answer packet carries AA=1
	for _, r := range segs {
		ra := r.cell == 0
		n := r.n
		if aa1Left && ra && n > 0 {
			mk(1, ra, true, r.rcode, behavior.AnswerNone, 0)
			n--
			aa1Left = false
		}
		mk(n, ra, false, r.rcode, behavior.AnswerNone, 0)
	}
	return nil
}

// cohorts materialises the population's cohorts: at full scale every
// record in emission order, else the survivors of scale.
func (b *builder) cohorts() ([]Cohort, error) {
	keep := b.records
	if b.cfg.SampleShift > 0 {
		var err error
		if keep, err = b.scale(b.cfg.SampleShift); err != nil {
			return nil, err
		}
	}
	b.drawTail(keep)
	out := make([]Cohort, len(keep))
	for i, r := range keep {
		g := &b.groups[r.group]
		cell := flagCells[r.cell]
		addr, name := b.payloadValue(r.payload)
		out[i] = Cohort{
			Count: r.count, Class: g.class,
			Country:  g.country,
			Category: g.category,
			Profile: behavior.Profile{
				RA: cell.ra, AA: cell.aa,
				Rcode:  r.rcode,
				Answer: g.answer, Addr: addr, Name: name,
				OmitQuestion: g.class == ClassEmptyQuestion,
			},
		}
	}
	return out, nil
}

// scale applies hierarchical largest-remainder scaling to the record
// counts: groups (class × category × answer form × country) are scaled
// against each other first, then records within each group. Flat
// apportionment over tens of thousands of heterogeneous cohorts would
// systematically inflate classes made of many small cohorts (their
// fractional remainders outrank the long tail's), distorting the class
// proportions every table reports; the group level pins those proportions
// to rounding error. It returns the records that keep a nonzero count,
// with their scaled counts, by group in first-appearance order and by
// emission order within a group.
func (b *builder) scale(shift uint8) ([]record, error) {
	totals := make([]uint64, len(b.groups))
	for g := range b.groups {
		totals[g] = b.groups[g].total
	}
	groupScaled, err := dist.ScaleDown(totals, shift)
	if err != nil {
		return nil, fmt.Errorf("population: scale down groups: %w", err)
	}

	// Counting sort of the record indexes by group: group g's members are
	// members[start[g]:start[g+1]], in emission order.
	start := make([]int, len(b.groups)+1)
	for _, r := range b.records {
		start[r.group+1]++
	}
	largest := 0 // members in the biggest group
	for g := range b.groups {
		largest = max(largest, start[g+1])
		start[g+1] += start[g]
	}
	members := make([]uint32, len(b.records))
	next := slices.Clone(start[:len(b.groups)])
	for i, r := range b.records {
		members[next[r.group]] = uint32(i)
		next[r.group]++
	}

	weights := make([]uint64, largest)
	scaled := make([]uint64, largest)
	var apportion dist.Apportioner
	keep := make([]record, 0, len(b.records)>>shift+16)
	for g, target := range groupScaled {
		if target == 0 {
			continue
		}
		idxs := members[start[g]:start[g+1]]
		w, out := weights[:len(idxs)], scaled[:len(idxs)]
		for j, i := range idxs {
			w[j] = b.records[i].count
		}
		if err := apportion.Apportion(out, w, target); err != nil {
			return nil, fmt.Errorf("population: scale down group %v: %w", b.groups[g].groupKey, err)
		}
		for j, i := range idxs {
			if out[j] > 0 {
				r := b.records[i]
				r.count = out[j]
				keep = append(keep, r)
			}
		}
	}
	return keep, nil
}
