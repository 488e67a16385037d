package capture

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
)

// mkResponse returns the wire form of an answered A query for qname.
func mkResponse(qname string, id uint16) []byte {
	q := dnswire.NewQuery(id, qname, dnswire.TypeA)
	r := dnswire.NewResponse(q)
	r.Header.RA = true
	r.AnswerA(0x01020304, 60)
	return r.MustPack()
}

// mkR2 is a response as the prober keeps it.
func mkR2(qname string, id uint16) Packet {
	return Packet{
		Kind: KindR2, At: time.Second,
		Src: ipv4.MustParseAddr("5.6.7.8"), Dst: ipv4.MustParseAddr("9.9.9.9"),
		Payload: mkResponse(qname, id),
	}
}

// TestProbeLogKeptPacketOwnsPayload: a kept R2, and the payload Append
// returns for the prober to hand on, is a copy, so the network reusing the
// datagram's buffer after delivery leaves it intact.
func TestProbeLogKeptPacketOwnsPayload(t *testing.T) {
	p := mkR2("a.example.net", 1)
	want := append([]byte(nil), p.Payload...)
	var l Log
	kept := l.Append(p)
	for i := range p.Payload {
		p.Payload[i] ^= 0xFF
	}
	it := l.Iter()
	if !it.Next() || !bytes.Equal(it.Packet().Payload, want) || !bytes.Equal(kept, want) {
		t.Error("a kept packet aliases the datagram buffer")
	}
}

func TestGroupFlows(t *testing.T) {
	var packets Log
	for _, p := range []Packet{
		{Kind: KindR2, Payload: mkResponse("a.example.net", 1)},
		{Kind: KindR2, Payload: mkResponse("b.example.net", 2)},
		{Kind: KindR2, Payload: mkResponse("a.example.net", 3)},
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

// TestLogRoundTrip: a capture file is the header and the log's packet
// stream, and it reads back record for record.
func TestLogRoundTrip(t *testing.T) {
	want := []Packet{
		{Kind: KindQ1, At: time.Millisecond, Src: 1, Dst: 2, Payload: []byte{1, 2, 3}},
		{Kind: KindR2, At: time.Hour, Src: 0xFFFFFFFF, Dst: 0, Payload: nil},
		{Kind: KindQ2, At: 0, Src: 7, Dst: 8, Payload: bytes.Repeat([]byte{9}, 512)},
	}
	var l Log
	for _, p := range want {
		l.Append(p)
	}
	file := l.AppendFile(nil)
	if !bytes.Equal(file, l.AppendStream([]byte("ORDNSCAP\x02"))) {
		t.Fatal("a capture file is not the header and the packet stream")
	}
	got, err := ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(want) {
		t.Fatalf("read %d records, want %d", got.Len(), len(want))
	}
	equalPackets(t, collect(got), want)

	// An empty log writes a file that reads back as empty.
	empty, err := ReadFile((*Log)(nil).AppendFile(nil))
	if err != nil || empty.Len() != 0 {
		t.Errorf("empty capture: %d records, %v", empty.Len(), err)
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := ReadFile([]byte("NOTALOG!\x02\x00")); err != ErrBadMagic {
		t.Errorf("bad magic: %v", err)
	}
	if _, err := ReadFile([]byte("ORDNSCAP\x09\x00")); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version 9: %v, want ErrBadVersion", err)
	}
	if _, err := ReadFile([]byte("OR")); err == nil {
		t.Error("short header accepted")
	}
	// A version-1 file (22-byte record headers) is refused by version, not
	// misread as a packet stream.
	v1 := append([]byte("ORDNSCAP\x01"), make([]byte, 22)...)
	if _, err := ReadFile(v1); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version 1: %v, want ErrBadVersion", err)
	}
}

// TestReaderTruncatedRecord: a file cut short, or carrying bytes after
// its packet stream, is refused.
func TestReaderTruncatedRecord(t *testing.T) {
	var l Log
	l.Append(Packet{Kind: KindR2, Payload: []byte{1, 2, 3, 4}})
	full := l.AppendFile(nil)
	if _, err := ReadFile(full[:len(full)-2]); err == nil {
		t.Error("truncated record accepted")
	}
	if _, err := ReadFile(append(full, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindQ1: "Q1", KindQ2: "Q2", KindR1: "R1", KindR2: "R2", Kind(9): "Kind(9)"} {
		if k.String() != want {
			t.Errorf("Kind(%d) = %q", k, k.String())
		}
	}
}
