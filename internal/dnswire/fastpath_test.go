package dnswire

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// boundaryNames sit on the edges the encoder's fast path must hand to the
// general path: escapes, empty labels, the 63/64-octet label limit, the
// 255-octet name limit and trailing dots. FuzzUnpack seeds from them.
var boundaryNames = []string{
	"", ".", "a", "a.", "a..", "..", ".a", "a..b", "A.B.C", "Or000.0000001.UCFsealresearch.NET.",
	strings.Repeat("a", 63), strings.Repeat("a", 63) + ".", strings.Repeat("a", 64),
	strings.Repeat("a", 63) + "." + strings.Repeat("b", 64),
	longName(253), longName(253) + ".", longName(254), longName(254) + ".",
	`a\.b`, `a\\.b`, `a\\`, `a\\\.`, `a\`, `a\.`, `\065b.c`, `\256`, `\1`, `\12x`, `\000.\255`,
	`\.` + strings.Repeat("a", 62), `\.` + strings.Repeat("a", 63),
}

// longName returns a name of n presentation octets made of 63-octet
// labels: its wire form is n+2 octets.
func longName(n int) string {
	var b strings.Builder
	for b.Len() < n {
		if b.Len() > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strings.Repeat("x", min(63, n-b.Len())))
	}
	return b.String()
}

// randomPresentationName draws a presentation-form name from an alphabet
// that mixes plain octets with upper case, escapes (valid and broken),
// empty labels, labels around the 63-octet limit and names around the
// 255-octet limit.
func randomPresentationName(r *rand.Rand) string {
	var b strings.Builder
	labels := 1 + r.Intn(6)
	for l := 0; l < labels; l++ {
		if l > 0 {
			b.WriteByte('.')
		}
		n := r.Intn(12)
		switch r.Intn(8) {
		case 0:
			n = 62 + r.Intn(4)
		case 1:
			n = 0
		}
		for i := 0; i < n; i++ {
			switch k := r.Intn(40); {
			case k == 0:
				b.WriteString(`\.`)
			case k == 1:
				b.WriteString(`\\`)
			case k == 2:
				fmt.Fprintf(&b, `\%03d`, r.Intn(300))
			case k == 3:
				b.WriteString(`\9`)
			case k < 10:
				b.WriteByte(byte('A' + r.Intn(26)))
			default:
				b.WriteByte("abcdefghijklmnopqrstuvwxyz0123456789-_*"[r.Intn(39)])
			}
		}
	}
	if r.Intn(4) == 0 {
		b.WriteByte('.')
	}
	if r.Intn(16) == 0 {
		return longName(250+r.Intn(8)) + "." + b.String()
	}
	return b.String()
}

// TestNameFastPathMatchesGeneralPath checks appendNameAny, whose fast path
// copies whole labels, against the octet-by-octet appendEscapedName alone:
// identical bytes after a non-empty prefix, and the identical error.
func TestNameFastPathMatchesGeneralPath(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	names := append([]string(nil), boundaryNames...)
	for i := 0; i < 20000; i++ {
		names = append(names, randomPresentationName(r))
	}
	plain := 0
	for _, name := range names {
		prefix := []byte{0xAB, 0xCD}
		// The root is the one name appendNameAny settles before either path.
		want, wantErr := append(append([]byte(nil), prefix...), 0), error(nil)
		if name != "" && name != "." {
			want, wantErr = appendEscapedName(append([]byte(nil), prefix...), name)
		}
		got, gotErr := appendName(append([]byte(nil), prefix...), name)
		gotB, gotBErr := appendNameBytes(append([]byte(nil), prefix...), []byte(name))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || fmt.Sprint(gotBErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: errors %v / %v, general path %v", name, gotErr, gotBErr, wantErr)
		}
		if !bytes.Equal(got, want) || !bytes.Equal(gotB, want) {
			t.Fatalf("%q: encoded %x / %x, general path %x", name, got, gotB, want)
		}
		if wantErr == nil && !strings.Contains(name, `\`) {
			plain++
		}
	}
	if plain < 1000 {
		t.Errorf("only %d names took the fast path", plain)
	}
}

// TestPresentationFastPathMatchesOctetLoop checks the whole-label copy in
// appendPresentation against the per-octet loop for every octet value,
// alone and inside a printable label.
func TestPresentationFastPathMatchesOctetLoop(t *testing.T) {
	for c := 0; c < 256; c++ {
		for _, label := range [][]byte{{byte(c)}, {'a', '-', byte(c), '9', 'z'}} {
			got := appendPresentation([]byte("x."), label)
			want := appendPresentationOctets([]byte("x."), label)
			if !bytes.Equal(got, want) {
				t.Errorf("octet %#02x in %q: %q, octet loop %q", c, label, got, want)
			}
		}
	}
}
