package dnssrv

import (
	"bytes"
	"strings"
	"testing"
)

func TestZoneFileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteClusterZone(&buf, testSLD, 3, 100); err != nil {
		t.Fatal(err)
	}
	z, err := ParseZoneFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if z.Origin != testSLD {
		t.Errorf("origin = %q", z.Origin)
	}
	if z.TTL != 60 {
		t.Errorf("TTL = %d", z.TTL)
	}
	if z.Serial != 2018042603 {
		t.Errorf("serial = %d (cluster must be encoded)", z.Serial)
	}
	if len(z.NS) != 1 || z.NS[0] != "ns1."+testSLD {
		t.Errorf("NS = %v", z.NS)
	}
	if len(z.A) != 100 {
		t.Fatalf("records = %d", len(z.A))
	}
	n, err := VerifyClusterZone(z)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("verified = %d", n)
	}
	// Spot-check one record against the server's answer path.
	name := FormatProbeName(3, 42, testSLD)
	if z.A[name] != TruthAddr(name) {
		t.Errorf("record %s = %v", name, z.A[name])
	}
}

// The hand-written zones below also seed FuzzParseZoneFile.
const (
	variationsZone = `
; a hand-written zone
$ORIGIN example.net.
$TTL 300
@ IN SOA ns1.example.net. host.example.net. ( 7 3600
   600 86400
   60 )
@ IN NS ns1.example.net.
www 60 IN A 192.0.2.10
api.example.net. IN A 192.0.2.11 ; trailing comment
`
	singleLineSOAZone = `$ORIGIN z.net.
@ IN SOA ns.z.net. h.z.net. 42 3600 600 86400 60
a IN A 198.51.100.1
`
)

// badZones are zone files ParseZoneFile must reject.
var badZones = map[string]string{
	"no soa":         "$ORIGIN x.net.\na IN A 1.2.3.4\n",
	"bad origin":     "$ORIGIN\n",
	"bad ttl":        "$TTL abc\n",
	"bad addr":       "$ORIGIN x.net.\n@ IN SOA a. b. 1 2 3 4 5\na IN A 999.1.1.1\n",
	"unknown type":   "$ORIGIN x.net.\n@ IN SOA a. b. 1 2 3 4 5\na IN MX 10 m.x.net.\n",
	"short record":   "$ORIGIN x.net.\n@ IN SOA a. b. 1 2 3 4 5\nshort IN\n",
	"unbalanced":     "$ORIGIN x.net.\n@ IN SOA a. b. ( 1 2 3\n",
	"bad soa serial": "$ORIGIN x.net.\n@ IN SOA a. b. xyz 2 3 4 5\n",
	"malformed ns":   "$ORIGIN x.net.\n@ IN SOA a. b. 1 2 3 4 5\n@ IN NS\n",
}

func TestParseZoneFileVariations(t *testing.T) {
	z, err := ParseZoneFile(strings.NewReader(variationsZone))
	if err != nil {
		t.Fatal(err)
	}
	if z.Serial != 7 {
		t.Errorf("serial = %d", z.Serial)
	}
	if z.A["www.example.net"].String() != "192.0.2.10" {
		t.Errorf("www = %v", z.A["www.example.net"])
	}
	if z.A["api.example.net"].String() != "192.0.2.11" {
		t.Errorf("api = %v", z.A["api.example.net"])
	}
}

func TestParseZoneFileSingleLineSOA(t *testing.T) {
	z, err := ParseZoneFile(strings.NewReader(singleLineSOAZone))
	if err != nil {
		t.Fatal(err)
	}
	if z.Serial != 42 {
		t.Errorf("serial = %d", z.Serial)
	}
}

func TestParseZoneFileErrors(t *testing.T) {
	for name, text := range badZones {
		if _, err := ParseZoneFile(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestVerifyClusterZoneDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteClusterZone(&buf, testSLD, 0, 10); err != nil {
		t.Fatal(err)
	}
	z, err := ParseZoneFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name := range z.A {
		z.A[name]++ // corrupt one record
		break
	}
	if _, err := VerifyClusterZone(z); err == nil {
		t.Error("corruption not detected")
	}
}

func BenchmarkWriteClusterZone(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteClusterZone(&buf, testSLD, 0, 5000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseZoneFile(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteClusterZone(&buf, testSLD, 0, 5000); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseZoneFile(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
