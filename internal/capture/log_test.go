package capture

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"

	"openresolver/internal/ipv4"
)

// logFixture is a packet mix that exercises every field's range: empty
// and oversize payloads, negative and huge times, and extreme addresses.
func logFixture() []Packet {
	var pkts []Packet
	for i := 0; i < 2000; i++ {
		p := Packet{
			Kind: Kind(i%4 + 1),
			At:   time.Duration(i) * time.Millisecond,
			Src:  ipv4Addr(i * 7),
			Dst:  ipv4Addr(i * 13),
		}
		if i%5 != 0 {
			p.Payload = bytes.Repeat([]byte{byte(i)}, 30+i%150)
		}
		pkts = append(pkts, p)
	}
	pkts[3].At = -time.Hour
	pkts[4].At = math.MaxInt64
	pkts[5].Src, pkts[5].Dst = 0xFFFFFFFF, 0
	pkts[700].Payload = bytes.Repeat([]byte{7}, logChunk+100)
	pkts[701].Payload = bytes.Repeat([]byte{8}, 1<<16)
	return pkts
}

// collect reads every record of l.
func collect(l *Log) []Packet {
	var out []Packet
	for it := l.Iter(); it.Next(); {
		out = append(out, it.Packet())
	}
	return out
}

func equalPackets(t *testing.T, got, want []Packet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d packets, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.At != w.At || g.Src != w.Src || g.Dst != w.Dst || !bytes.Equal(g.Payload, w.Payload) {
			t.Fatalf("packet %d: got %+v, want %+v", i, g, w)
		}
	}
}

// TestLogAppendIter: a log reads back exactly what was appended, in
// order; no record straddles two chunks, an oversize record has a chunk of
// its own, and every payload Append returned still holds its bytes after
// the log has grown past it.
func TestLogAppendIter(t *testing.T) {
	want := logFixture()
	var l Log
	var kept [][]byte
	for _, p := range want {
		kept = append(kept, l.Append(p))
	}
	size := len(l.AppendStream(nil)) - len(binary.AppendUvarint(nil, uint64(len(want))))
	if l.Len() != len(want) || l.Size() != size {
		t.Fatalf("Len %d Size %d, want %d and %d", l.Len(), l.Size(), len(want), size)
	}
	equalPackets(t, collect(&l), want)
	for i, k := range kept {
		if !bytes.Equal(k, want[i].Payload) || cap(k) != len(k) {
			t.Fatalf("payload %d returned by Append changed or is not capacity-capped", i)
		}
	}
	records := 0
	for i, c := range l.chunks {
		sub := &Log{chunks: [][]byte{c}}
		n := len(collect(sub))
		if n == 0 {
			t.Fatalf("chunk %d holds no record", i)
		}
		records += n
		if len(c) > logChunk && n != 1 {
			t.Errorf("oversize chunk %d holds %d records, want its own chunk", i, n)
		}
	}
	if records != len(want) {
		t.Errorf("chunks parse to %d records on their own, want %d: a record straddles chunks", records, len(want))
	}
	if len(l.chunks) < 3 {
		t.Errorf("fixture filled only %d chunks", len(l.chunks))
	}
}

// TestReadLogInPlace: a stream AppendStream wrote validates back to the
// same records, aliasing the input (capacity-capped) instead of copying
// it, and returns the bytes after it.
func TestReadLogInPlace(t *testing.T) {
	want := logFixture()
	var l Log
	for _, p := range want {
		l.Append(p)
	}
	stream := l.AppendStream(nil)
	buf := append(bytes.Clone(stream), "tail"...)
	got, rest, err := ReadLog(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != "tail" {
		t.Fatalf("rest = %q", rest)
	}
	if got.Len() != l.Len() || got.Size() != l.Size() || !bytes.Equal(got.AppendStream(nil), stream) {
		t.Fatal("read-back log differs from the written one")
	}
	equalPackets(t, collect(got), want)
	if len(got.chunks) != 1 || cap(got.chunks[0]) != len(got.chunks[0]) {
		t.Fatalf("read-back log has %d chunks; its chunk must be the input, capacity-capped", len(got.chunks))
	}
	// The stream ends with the last payload's last byte; flipping it in
	// buf must show through the log.
	buf[len(stream)-1] ^= 0xFF
	last, wantLast := collect(got)[len(want)-1].Payload, want[len(want)-1].Payload
	if last[len(last)-1] == wantLast[len(wantLast)-1] {
		t.Error("the read-back log copies its input instead of aliasing it")
	}

	// Appending to a read-back log must not write into the input.
	before := bytes.Clone(buf)
	got.Append(Packet{Kind: KindR2, Payload: []byte{1, 2, 3}})
	if !bytes.Equal(before, buf) {
		t.Error("appending to a read-back log wrote into its input")
	}

	empty, rest, err := ReadLog([]byte{0, 9})
	if err != nil || empty.Len() != 0 || len(collect(empty)) != 0 || !bytes.Equal(rest, []byte{9}) {
		t.Errorf("empty stream: %v %d %v", err, empty.Len(), rest)
	}
}

// TestReadLogRejects: every malformed stream is an error naming what is
// wrong, never a panic or a short log.
func TestReadLogRejects(t *testing.T) {
	var l Log
	l.Append(Packet{Kind: KindR2, At: time.Second, Src: 1, Dst: 2, Payload: []byte{1, 2, 3, 4}})
	good := l.AppendStream(nil)
	for name, tc := range map[string]struct {
		b    []byte
		want string
	}{
		"no count":      {nil, "bad packet count"},
		"huge count":    {binary.AppendUvarint(nil, 1<<40), "cannot fit"},
		"truncated":     {good[:len(good)-1], "overruns"},
		"short record":  {append(append([]byte{2}, good[1:]...), make([]byte, 2*minRecord-len(good[1:]))...), "truncated stream"},
		"unknown kind":  {append([]byte{1, 9}, good[2:]...), "unknown kind"},
		"bad length":    {append(bytes.Clone(good[:len(good)-5]), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF), "bad payload length"},
		"truncated hdr": {append([]byte{1, byte(KindR2)}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80), "truncated record"},
	} {
		if _, _, err := ReadLog(tc.b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
}

// TestConcatLogs: a concatenation reads its parts in order, shares their
// bytes, and appending to it leaves every part unchanged.
func TestConcatLogs(t *testing.T) {
	want := logFixture()
	var a, b Log
	for i, p := range want {
		if i < 900 {
			a.Append(p)
		} else {
			b.Append(p)
		}
	}
	bBytes := b.AppendStream(nil)
	c := ConcatLogs(&a, nil, &b)
	if c.Len() != len(want) || c.Size() != a.Size()+b.Size() {
		t.Fatalf("Len %d Size %d", c.Len(), c.Size())
	}
	equalPackets(t, collect(c), want)
	c.Append(Packet{Kind: KindR2, Payload: []byte{1}})
	a.Append(Packet{Kind: KindR1, Payload: []byte{2}})
	if !bytes.Equal(b.AppendStream(nil), bBytes) {
		t.Error("appending to a concatenation changed a part")
	}
	if got := collect(c); got[len(want)].Kind != KindR2 || len(got) != len(want)+1 {
		t.Error("appending to a part changed the concatenation")
	}
	if got := collect(&a); len(got) != 901 || got[900].Kind != KindR1 {
		t.Error("appending to a part lost the append")
	} else {
		equalPackets(t, got[:900], want[:900])
	}
	if (*Log)(nil).Len() != 0 || len(collect(nil)) != 0 || !bytes.Equal((*Log)(nil).AppendStream(nil), []byte{0}) {
		t.Error("a nil log does not read as empty")
	}
}

// TestProbeLogKeepAllocs pins the allocation budget of the prober's keep
// step: appending one R2 to the shard's log and handing the log's copy to
// OnR2. A kept R2 costs no allocation of its own, only its share of the
// chunk it lands in. The runs span several chunks, so the chunk
// allocations are amortised.
func TestProbeLogKeepAllocs(t *testing.T) {
	p := mkR2("a.example.net", 1)
	var l Log
	var n int
	onR2 := func(_ ipv4.Addr, payload []byte) { n += len(payload) }
	runs := 4 * logChunk / (len(p.Payload) + minRecord)
	if allocs := testing.AllocsPerRun(runs, func() { onR2(p.Src, l.Append(p)) }); allocs != 0 {
		t.Errorf("keeping an R2 allocates %v times per packet, want 0 amortised", allocs)
	}
	if l.Len() != runs+1 || n == 0 {
		t.Errorf("kept %d packets, want %d", l.Len(), runs+1)
	}
}

// BenchmarkProbeLogKeep times the prober's keep step in a campaign that
// keeps packets: one R2 appended to the shard's log, with the log's copy
// handed to OnR2. The log restarts every 4,096 packets, so the
// benchmark's memory stays bounded and every chunk allocation is counted.
func BenchmarkProbeLogKeep(b *testing.B) {
	p := mkR2("a.example.net", 1)
	var l *Log
	var n int
	onR2 := func(_ ipv4.Addr, payload []byte) { n += len(payload) }
	b.ReportAllocs()
	b.SetBytes(int64(len(p.Payload)))
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			l = &Log{}
		}
		p.At = time.Duration(i)
		onR2(p.Src, l.Append(p))
	}
}
