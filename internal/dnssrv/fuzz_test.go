package dnssrv

import (
	"bytes"
	"testing"
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
