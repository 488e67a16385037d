package capture

import (
	"bytes"
	"testing"
	"time"

	"openresolver/internal/ipv4"
)

func ipv4Addr(n int) ipv4.Addr { return ipv4.Addr(uint32(n) * 2654435761) }

// FuzzReader: arbitrary bytes must never panic the capture-file reader,
// and a log it accepts must write back to a file that reads back intact.
func FuzzReader(f *testing.F) {
	var l Log
	l.Append(Packet{Kind: KindR2, At: time.Second, Src: 1, Dst: 2, Payload: []byte{1, 2, 3}})
	f.Add(l.AppendFile(nil))
	f.Add([]byte("ORDNSCAP\x01"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadFile(data)
		if err != nil {
			return
		}
		again, err := ReadFile(l.AppendFile(nil))
		if err != nil {
			t.Fatalf("a log read from a file does not read back: %v", err)
		}
		equalPackets(t, collect(again), collect(l))
	})
}

func TestWriterReaderPropertyRoundTrip(t *testing.T) {
	// Deterministic pseudo-random packet streams round-trip exactly.
	for trial := 0; trial < 20; trial++ {
		var l Log
		var want []Packet
		for i := 0; i < 50; i++ {
			p := Packet{
				Kind: Kind(i%4 + 1),
				At:   time.Duration(i*trial) * time.Millisecond,
				Src:  ipv4Addr(i * 7),
				Dst:  ipv4Addr(i * 13),
			}
			if i%3 != 0 {
				p.Payload = bytes.Repeat([]byte{byte(i)}, i%97)
			}
			want = append(want, p)
			l.Append(p)
		}
		got, err := ReadFile(l.AppendFile(nil))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		equalPackets(t, collect(got), want)
	}
}
