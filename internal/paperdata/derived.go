package paperdata

// This file derives the *reconciled* values used for population
// construction: the paper's tables are kept verbatim in paperdata.go, and
// where their internal sums disagree by a few packets the adjustments below
// produce one consistent set of marginals. Each adjustment is listed in
// Discrepancies (discrepancies.go).

// ReconciledAA returns Table V adjusted so its column sums match Table III.
// Only the 2018 AA0 row needs adjustment (−10 correct, +10 without).
func ReconciledAA(y Year) FlagTable {
	t := AATable[y]
	if y == Y2018 {
		t.Flag0.Correct -= 10
		t.Flag0.Without += 10
	}
	return t
}

// ReconciledRcode returns Table VI adjusted so each row sums to Table III's
// W and W/O totals. Shortfalls/excesses are absorbed by the largest bucket
// of the affected row (NoError for 2013-W, Refused for the W/O rows).
func ReconciledRcode(y Year) RcodeRow {
	r := RcodeTable[y]
	c := CorrectnessByYear[y]
	adjust := func(row *[10]uint64, target uint64, bucket int) {
		var sum uint64
		for _, v := range row {
			sum += v
		}
		row[bucket] += target - sum // two's-complement arithmetic handles both signs
	}
	adjust(&r.With, c.With(), 0)     // NoError absorbs (only 2013 differs)
	adjust(&r.Without, c.Without, 5) // Refused absorbs
	return r
}

// ReconciledStrUnique returns Table VII's string-form unique count with the
// impossible 2013 value (57 uniques over 10 packets) capped at the packet
// count.
func ReconciledStrUnique(y Year) uint64 {
	f := IncorrectFormsByYear[y]
	if f.Str.Unique > f.Str.Packets {
		return f.Str.Packets
	}
	return f.Str.Unique
}

// ReconciledEmptyQuestion returns the §IV-B4 breakdown with its two gaps
// closed: the 7 packets unaccounted between RA1+RA0 and the total join the
// RA0/no-answer group, and the 1-packet rcode shortfall joins ServFail.
func ReconciledEmptyQuestion() EmptyQuestionStats {
	e := EmptyQuestion2018
	e.RA0 = e.Total - e.RA1 // 310
	var rsum uint64
	for _, v := range e.Rcodes {
		rsum += v
	}
	e.Rcodes[2] += e.Total - rsum // ServFail absorbs the missing packet
	return e
}

// BenignTop10 splits the top-10 rows into the non-malicious ones.
func BenignTop10(y Year) []TopAnswer {
	var out []TopAnswer
	for _, t := range Top10[y] {
		if _, mal := NamedMalicious[y][t.Addr]; !mal {
			out = append(out, t)
		}
	}
	return out
}

// TailIPStats returns the packet and unique-value budget of the
// incorrect-IP long tail: IP-form packets that are neither malicious nor in
// the top-10, and the unique addresses carrying them.
func TailIPStats(y Year) (packets, unique uint64) {
	f := IncorrectFormsByYear[y]
	packets = f.IP.Packets - MaliciousTotals[y].R2
	unique = f.IP.Unique - MaliciousTotals[y].IPs
	for _, t := range BenignTop10(y) {
		packets -= t.Count
		unique--
	}
	return packets, unique
}
