package dnssrv

import (
	"bytes"
	"testing"

	"openresolver/internal/ipv4"
)

// FuzzParseZoneFile feeds untrusted bytes to the zone-file parser, the one
// decoder here that reads files from outside the process. Properties: no
// panic; a rejected input returns an error and no zone; an accepted zone
// is usable — VerifyClusterZone returns on it, and when it verifies, it
// counts every A record.
func FuzzParseZoneFile(f *testing.F) {
	var cluster bytes.Buffer
	if err := WriteClusterZone(&cluster, testSLD, 3, 20); err != nil {
		f.Fatal(err)
	}
	f.Add(cluster.Bytes())
	// A record that disagrees with the ground truth.
	f.Add(append(bytes.Clone(cluster.Bytes()), "or003.0000001 IN A 192.0.2.1\n"...))
	f.Add([]byte(variationsZone))
	f.Add([]byte(singleLineSOAZone))
	for _, text := range badZones {
		f.Add([]byte(text))
	}
	// The zones of a few reference graphs: delegations with and without
	// glue, TTL columns, absolute owner names.
	for seed := int64(1); seed <= 3; seed++ {
		files, _ := graphZoneFiles(genGraph(seed))
		for _, file := range files {
			f.Add(file)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		z, err := ParseZoneFile(bytes.NewReader(data))
		if err != nil {
			if z != nil {
				t.Fatalf("rejected input (%v) also returned a zone", err)
			}
			return
		}
		if z == nil || z.A == nil {
			t.Fatal("accepted input returned no zone")
		}
		if n, err := VerifyClusterZone(z); err == nil && n != len(z.A) {
			t.Fatalf("verified %d of %d records", n, len(z.A))
		}
	})
}

// fnv1a64 is the plain 64-bit FNV-1a hash, byte by byte: the reference
// TruthAddr's folded form must agree with in its low 26 bits.
func fnv1a64(name []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range name {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// referenceTruthAddr is TruthAddr by its definition: 96.0.0.0/6 plus the
// low 26 bits of the name's FNV-1a hash.
func referenceTruthAddr(name []byte) ipv4.Addr {
	return truthBase | ipv4.Addr(fnv1a64(name))&truthHost
}

// FuzzTruthAddr checks TruthAddr, in both its string and []byte forms,
// against the plain FNV-1a reference on arbitrary names: names that end in
// the folded suffix and names that only come close to it.
func FuzzTruthAddr(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("a"))
	f.Add([]byte("research.net"))
	f.Add([]byte(truthSuffix[1:])) // the suffix without its leading dot
	f.Add([]byte(truthSuffix))
	f.Add([]byte("x" + truthSuffix[1:]))
	f.Add([]byte(truthSuffix + "."))
	for _, idx := range []int{0, 1, 9, 10, 999999, 1000000, 9999999} {
		f.Add([]byte(FormatProbeName(idx%1100, idx, testSLD)))
	}
	f.Add([]byte(FormatProbeName(1022, 110, testSLD)))
	f.Fuzz(func(t *testing.T, name []byte) {
		want := referenceTruthAddr(name)
		if got := TruthAddr(name); got != want {
			t.Fatalf("TruthAddr(%q) = %v, FNV-1a says %v", name, got, want)
		}
		if got := TruthAddr(string(name)); got != want {
			t.Fatalf("TruthAddr(string %q) = %v, FNV-1a says %v", name, got, want)
		}
		if !IsTruthAddr(want, string(name)) {
			t.Fatalf("IsTruthAddr rejects %q's own address %v", name, want)
		}
	})
}
