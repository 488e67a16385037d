package ipv4

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddrStringParseRoundTrip(t *testing.T) {
	tests := []struct {
		s string
		a Addr
	}{
		{"0.0.0.0", 0},
		{"255.255.255.255", 0xFFFFFFFF},
		{"192.168.0.1", 0xC0A80001},
		{"10.0.0.1", 0x0A000001},
		{"208.91.197.91", 0xD05BC55B},
	}
	for _, tt := range tests {
		got, err := ParseAddr(tt.s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", tt.s, err)
		}
		if got != tt.a {
			t.Errorf("ParseAddr(%q) = %#x, want %#x", tt.s, got, tt.a)
		}
		if s := tt.a.String(); s != tt.s {
			t.Errorf("String(%#x) = %q, want %q", tt.a, s, tt.s)
		}
	}
}

func TestParseAddrRejects(t *testing.T) {
	for _, s := range []string{
		"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "1.2.3.256",
		"01.2.3.4", "1.2.3.04", "a.b.c.d", "1..2.3", "1.2.3.",
		"-1.2.3.4", "1.2.3.4 ",
	} {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) accepted", s)
		}
	}
}

func TestPropertyAddrRoundTrip(t *testing.T) {
	f := func(a uint32) bool {
		got, err := ParseAddr(Addr(a).String())
		return err == nil && got == Addr(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockBasics(t *testing.T) {
	b := MustParseBlock("198.18.0.0/15")
	if b.Size() != 131072 {
		t.Errorf("Size = %d", b.Size())
	}
	if b.First() != MustParseAddr("198.18.0.0") || b.Last() != MustParseAddr("198.19.255.255") {
		t.Errorf("range = %v-%v", b.First(), b.Last())
	}
	if !b.Contains(MustParseAddr("198.19.1.2")) {
		t.Error("Contains inside failed")
	}
	if b.Contains(MustParseAddr("198.20.0.0")) {
		t.Error("Contains outside succeeded")
	}
	if b.String() != "198.18.0.0/15" {
		t.Errorf("String = %q", b.String())
	}
}

func TestBlockMasksBase(t *testing.T) {
	b := MustParseBlock("10.1.2.3/8")
	if b.Base != MustParseAddr("10.0.0.0") {
		t.Errorf("base not masked: %v", b.Base)
	}
}

func TestBlockEdges(t *testing.T) {
	whole := MustParseBlock("0.0.0.0/0")
	if whole.Size() != Space {
		t.Errorf("whole space size = %d", whole.Size())
	}
	if !whole.Contains(0xDEADBEEF) {
		t.Error("/0 must contain everything")
	}
	host := MustParseBlock("255.255.255.255/32")
	if host.Size() != 1 || !host.Contains(0xFFFFFFFF) || host.Contains(0xFFFFFFFE) {
		t.Error("/32 semantics wrong")
	}
}

func TestParseBlockRejects(t *testing.T) {
	for _, s := range []string{"1.2.3.4", "1.2.3.4/33", "1.2.3.4/-1", "1.2.3.4/x", "1.2.3/8"} {
		if _, err := ParseBlock(s); err == nil {
			t.Errorf("ParseBlock(%q) accepted", s)
		}
	}
}

func TestReservedBlocklistSize(t *testing.T) {
	bl := NewReservedBlocklist()
	// The true union of Table I's blocks (255.255.255.255/32 lies inside
	// 240.0.0.0/4, so the row sum exceeds the union by one). The paper's
	// printed total, 575,931,649, is an arithmetic error of exactly one /8:
	// the complement of the true union, 2^32-592,708,864 = 3,702,258,432,
	// matches the paper's 2018 Q1 count exactly.
	const want = 592708864
	if got := bl.Size(); got != want {
		t.Errorf("reserved union size = %d, want %d", got, want)
	}
	var tableTotal uint64
	for _, r := range ReservedBlocks {
		tableTotal += r.Block.Size()
	}
	if tableTotal != want+1 {
		t.Errorf("Table I row sum = %d, want %d", tableTotal, want+1)
	}
	if Space-want != 3702258432 {
		t.Errorf("allowed space = %d, want 3702258432 (2018 Q1)", Space-want)
	}
}

func TestReservedBlocklistMembership(t *testing.T) {
	bl := NewReservedBlocklist()
	in := []string{
		"0.0.0.0", "0.255.255.255", "10.0.0.1", "100.64.0.0", "100.127.255.255",
		"127.0.0.1", "169.254.1.1", "172.16.0.1", "172.31.255.255",
		"192.0.0.5", "192.0.2.1", "192.88.99.1", "192.168.1.1",
		"198.18.0.1", "198.51.100.25", "203.0.113.9", "224.0.0.1",
		"239.255.255.255", "240.0.0.1", "255.255.255.255",
	}
	for _, s := range in {
		if !bl.Contains(MustParseAddr(s)) {
			t.Errorf("%s should be reserved", s)
		}
	}
	out := []string{
		"1.0.0.0", "8.8.8.8", "9.255.255.255", "11.0.0.0", "100.63.255.255",
		"100.128.0.0", "126.255.255.255", "128.0.0.0", "169.253.255.255",
		"169.255.0.0", "172.15.255.255", "172.32.0.0", "192.0.1.0",
		"192.0.3.0", "192.88.98.255", "192.88.100.0", "192.167.255.255",
		"192.169.0.0", "198.17.255.255", "198.20.0.0", "198.51.99.255",
		"203.0.112.255", "203.0.114.0", "223.255.255.255",
	}
	for _, s := range out {
		if bl.Contains(MustParseAddr(s)) {
			t.Errorf("%s should not be reserved", s)
		}
	}
}

func TestBlocklistMerging(t *testing.T) {
	bl := NewBlocklist(
		MustParseBlock("10.0.0.0/9"),
		MustParseBlock("10.128.0.0/9"), // adjacent: must merge
		MustParseBlock("10.64.0.0/10"), // contained
	)
	if bl.Size() != 1<<24 {
		t.Errorf("merged size = %d, want %d", bl.Size(), 1<<24)
	}
	if len(bl.starts) != 1 {
		t.Errorf("intervals = %d, want 1", len(bl.starts))
	}
	if got := len(bl.Blocks()); got != 3 {
		t.Errorf("Blocks() = %d entries, want original 3", got)
	}
}

func TestEmptyBlocklist(t *testing.T) {
	bl := NewBlocklist()
	if bl.Size() != 0 || bl.Contains(0x01020304) {
		t.Error("empty blocklist misbehaves")
	}
}

func TestPropertyBlocklistAgreesWithLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		blocks := make([]Block, n)
		for i := range blocks {
			bits := uint8(4 + rng.Intn(29))
			blocks[i] = Block{Base: Addr(rng.Uint32()), Bits: bits}
			blocks[i].Base &= blocks[i].mask()
		}
		bl := NewBlocklist(blocks...)
		for probe := 0; probe < 200; probe++ {
			a := Addr(rng.Uint32())
			if rng.Intn(2) == 0 { // bias probes toward block edges
				b := blocks[rng.Intn(n)]
				switch rng.Intn(4) {
				case 0:
					a = b.First()
				case 1:
					a = b.Last()
				case 2:
					a = b.First() - 1
				case 3:
					a = b.Last() + 1
				}
			}
			want := false
			for _, b := range blocks {
				if b.Contains(a) {
					want = true
					break
				}
			}
			if got := bl.Contains(a); got != want {
				t.Fatalf("trial %d: Contains(%v) = %v, want %v (blocks %v)",
					trial, a, got, want, blocks)
			}
		}
	}
}

func TestIsPrivate(t *testing.T) {
	priv := []string{"10.0.0.1", "172.16.0.1", "172.30.1.254", "192.168.1.1", "192.168.2.1"}
	for _, s := range priv {
		if !IsPrivate(MustParseAddr(s)) {
			t.Errorf("%s should be private", s)
		}
	}
	pub := []string{"9.9.9.9", "172.15.0.1", "172.32.0.1", "192.167.0.1", "8.8.8.8", "216.194.64.193"}
	for _, s := range pub {
		if IsPrivate(MustParseAddr(s)) {
			t.Errorf("%s should be public", s)
		}
	}
}

func BenchmarkBlocklistContains(b *testing.B) {
	bl := NewReservedBlocklist()
	b.ReportAllocs()
	var hits int
	for i := 0; i < b.N; i++ {
		if bl.Contains(Addr(i * 2654435761)) {
			hits++
		}
	}
	_ = hits
}

func BenchmarkAddrString(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Addr(i * 2654435761).String()
	}
}

// Blocks returns a copy of the blocks the list was built from (unmerged).
func (bl *Blocklist) Blocks() []Block {
	return append([]Block(nil), bl.blocks...)
}
