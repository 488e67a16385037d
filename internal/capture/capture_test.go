package capture

import (
	"bytes"
	"io"
	"testing"
	"time"

	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
)

func mkDatagram(qname string, id uint16) netsim.Datagram {
	q := dnswire.NewQuery(id, qname, dnswire.TypeA)
	r := dnswire.NewResponse(q)
	r.Header.RA = true
	r.AnswerA(0x01020304, 60)
	return netsim.Datagram{
		Src: ipv4.MustParseAddr("5.6.7.8"), Dst: ipv4.MustParseAddr("9.9.9.9"),
		SrcPort: 53, DstPort: 40000,
		Payload: r.MustPack(),
	}
}

func TestProbeLogCountsAndSink(t *testing.T) {
	l := NewProbeLog()
	var sunk []Packet
	l.Sink = func(p Packet) { sunk = append(sunk, p) }
	l.CountQ1(10)
	l.CountQ1(5)
	l.AddR2(time.Second, mkDatagram("a.example.net", 1))
	l.AddR2(2*time.Second, mkDatagram("b.example.net", 2))
	c := l.Counters()
	if c.Q1 != 15 || c.R2 != 2 {
		t.Errorf("counters = %+v", c)
	}
	if l.R2Log().Len() != 2 || len(sunk) != 2 {
		t.Errorf("retained %d, sunk %d", l.R2Log().Len(), len(sunk))
	}
	it := l.R2Log().Iter()
	if !it.Next() || it.Packet().At != time.Second || it.Packet().Kind != KindR2 {
		t.Errorf("packet meta = %+v", it.Packet())
	}

	// Keep=false retains nothing but still counts and sinks.
	l2 := &ProbeLog{Sink: func(Packet) {}}
	l2.AddR2(0, mkDatagram("c.example.net", 3))
	if l2.R2Log().Len() != 0 || l2.R2Log().Size() != 0 || l2.Counters().R2 != 1 {
		t.Error("non-retaining log misbehaves")
	}
}

// TestProbeLogSinkOnlyAllocs: a log without Keep hands the sink the
// datagram's own payload, so recording an R2 allocates nothing.
func TestProbeLogSinkOnlyAllocs(t *testing.T) {
	dg := mkDatagram("a.example.net", 1)
	var n int
	l := &ProbeLog{Sink: func(p Packet) { n += len(p.Payload) }}
	if allocs := testing.AllocsPerRun(100, func() { l.AddR2(time.Second, dg) }); allocs != 0 {
		t.Errorf("sink-only AddR2 allocates %v times, want 0", allocs)
	}
	if n == 0 || l.Counters().R2 == 0 {
		t.Error("the sink saw no payload")
	}
}

// TestProbeLogKeptPacketOwnsPayload: a kept packet, and the one its sink
// sees, is a copy, so the network reusing the datagram's buffer after
// delivery leaves it intact.
func TestProbeLogKeptPacketOwnsPayload(t *testing.T) {
	dg := mkDatagram("a.example.net", 1)
	want := append([]byte(nil), dg.Payload...)
	var sunk []byte
	l := NewProbeLog()
	l.Sink = func(p Packet) { sunk = p.Payload }
	l.AddR2(time.Second, dg)
	for i := range dg.Payload {
		dg.Payload[i] ^= 0xFF
	}
	it := l.R2Log().Iter()
	if !it.Next() || !bytes.Equal(it.Packet().Payload, want) || !bytes.Equal(sunk, want) {
		t.Error("a kept packet aliases the datagram buffer")
	}
}

func TestAuthLogTap(t *testing.T) {
	var l AuthLog
	dg := mkDatagram("x.example.net", 4)
	l.Packet(true, time.Second, dg, nil)
	l.Packet(false, 2*time.Second, dg, nil)
	l.Packet(true, 3*time.Second, dg, nil)
	if c := l.Counters(); c != (Counters{Q2: 2, R1: 1}) {
		t.Errorf("counters = %+v", c)
	}
}

func TestGroupFlows(t *testing.T) {
	var packets Log
	for _, p := range []Packet{
		{Kind: KindR2, Payload: mkDatagram("a.example.net", 1).Payload},
		{Kind: KindR2, Payload: mkDatagram("b.example.net", 2).Payload},
		{Kind: KindR2, Payload: mkDatagram("a.example.net", 3).Payload},
		{Kind: KindR2, Payload: (&dnswire.Message{Header: dnswire.Header{QR: true}}).MustPack()},
	} {
		packets.Append(p)
	}
	flows := GroupFlows(&packets)
	if len(flows) != 3 {
		t.Fatalf("flows = %d, want 3", len(flows))
	}
	if len(flows["a.example.net"].Packets) != 2 {
		t.Errorf("flow a has %d packets", len(flows["a.example.net"].Packets))
	}
	if len(flows[""].Packets) != 1 {
		t.Errorf("empty-question flow has %d packets", len(flows[""].Packets))
	}
}

func TestLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []Packet{
		{Kind: KindQ1, At: time.Millisecond, Src: 1, Dst: 2, Payload: []byte{1, 2, 3}},
		{Kind: KindR2, At: time.Hour, Src: 0xFFFFFFFF, Dst: 0, Payload: nil},
		{Kind: KindQ2, At: 0, Src: 7, Dst: 8, Payload: bytes.Repeat([]byte{9}, 512)},
	}
	for _, p := range want {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Errorf("count = %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(want[0]); err == nil {
		t.Error("write after close accepted")
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, wp := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Kind != wp.Kind || got.At != wp.At || got.Src != wp.Src || got.Dst != wp.Dst {
			t.Errorf("record %d meta: %+v want %+v", i, got, wp)
		}
		if !bytes.Equal(got.Payload, wp.Payload) {
			t.Errorf("record %d payload mismatch", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTALOG!x"))); err != ErrBadMagic {
		t.Errorf("bad magic: %v", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte("ORDNSCAP\x09"))); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("OR"))); err == nil {
		t.Error("short header accepted")
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	_ = w.Write(Packet{Kind: KindR2, Payload: []byte{1, 2, 3, 4}})
	_ = w.Close()
	full := buf.Bytes()
	r, err := NewReader(bytes.NewReader(full[:len(full)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated record: %v", err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindQ1: "Q1", KindQ2: "Q2", KindR1: "R1", KindR2: "R2", Kind(9): "Kind(9)"} {
		if k.String() != want {
			t.Errorf("Kind(%d) = %q", k, k.String())
		}
	}
}

func BenchmarkLogWrite(b *testing.B) {
	w, _ := NewWriter(io.Discard)
	p := Packet{Kind: KindR2, At: time.Second, Src: 1, Dst: 2, Payload: make([]byte, 64)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.Write(p); err != nil {
			b.Fatal(err)
		}
	}
}
