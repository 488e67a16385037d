package population

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"openresolver/internal/paperdata"
)

// populationGolden pins Build's output per (year, shift): the SHA-256 of
// the canonical encoding of the populations built with seeds 1, 5 and 21,
// in that order. The shifts span the full-scale build, every scale a
// golden campaign or benchmark runs at, and the coarse scales where most
// groups round to zero.
var populationGolden = map[paperdata.Year]map[uint8]string{
	paperdata.Y2013: {
		0:  "63c549fcc176020503385ea5241647b50335645b56a70d77dbec66cb01885cb4",
		6:  "ad43883babc0555d8f6da8ecaaecd358db2a84a7ac926a59f21ef8d476f525bc",
		8:  "49d5f8c9fc70fba44c27f3cdcfb44d8b6b106c9346832a18260406c880d4d994",
		10: "ee1d51e4b653927e84b10fd372f539776a47213ea99c54e382f6838f6e789262",
		11: "6983cdc2307be8553836c63f792fcf1274a0f91d58f96134acf0d2a864c6f80c",
		13: "e367d8418f37d443657df6f7fec3eabbd517e0187e581f2a6aae18c1c4e10c2a",
		14: "fdf73d169318401616a8e60173febce2f1d1cef6234e24c4275e51389d9631b7",
	},
	paperdata.Y2018: {
		0:  "ffa8848b19b79361ceaa04a9c1d94f09d1faa10c9c7ff20edbd19863dc1950b8",
		6:  "f062bd135363bde1bc7cbd85de6c8f3573090083a86312088c96bd414b1246b2",
		8:  "080b00630c2103afb00d858e7b044e71eb0dab0390f09a8b2ce9a73db4cf7c6d",
		10: "14a488964e283454d4224d218931ddbba812012f6aab86b0d60e81fddef11d76",
		11: "8a1487b31cd0bac9bff42ddbf6ff49381f09604ec5f873e0ca74b92cb999e13e",
		13: "4894be4ab9324d238795d51b75caed6cf55cbcb69218eb18ab9576e0d86abeac",
		14: "81bb2369b1cbdf6be139487cc844a3dc63d657509d5f61f6c799e10c7d224207",
	},
}

var goldenShifts = []uint8{0, 6, 8, 10, 11, 13, 14}

var goldenSeeds = []int64{1, 5, 21}

// hashPopulation appends the canonical encoding of pop to h: the cohort
// count, then every cohort field in declaration order (strings
// length-prefixed), then ExpectedR2 and ExpectedQ2.
func hashPopulation(h hash.Hash, pop *Population) {
	var buf []byte
	str := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	flag := func(v bool) {
		if v {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(pop.Cohorts)))
	for _, c := range pop.Cohorts {
		p := c.Profile
		buf = binary.LittleEndian.AppendUint64(buf, c.Count)
		buf = append(buf, byte(c.Class))
		flag(p.RA)
		flag(p.AA)
		buf = append(buf, byte(p.Rcode), byte(p.Answer))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Addr))
		str(p.Name)
		flag(p.OmitQuestion)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Upstream))
		str(p.Version)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.ForwardTo))
		str(c.Country)
		str(string(c.Category))
		h.Write(buf)
		buf = buf[:0]
	}
	buf = binary.LittleEndian.AppendUint64(buf, pop.ExpectedR2)
	buf = binary.LittleEndian.AppendUint64(buf, pop.ExpectedQ2)
	h.Write(buf)
}

// TestPopulationGolden is the byte-identity contract of the population
// compiler: any change to a cohort's order, count, profile, placement or
// category at any pinned scale changes a hash.
func TestPopulationGolden(t *testing.T) {
	for _, y := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		for _, shift := range goldenShifts {
			h := sha256.New()
			for _, seed := range goldenSeeds {
				pop, err := Build(Config{Year: y, SampleShift: shift, Seed: seed})
				if err != nil {
					t.Fatalf("Build(%d, shift %d, seed %d): %v", y, shift, seed, err)
				}
				hashPopulation(h, pop)
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := populationGolden[y][shift]; got != want {
				t.Errorf("%d shift %d: population hash %s, want %s", y, shift, got, want)
			}
		}
	}
}
