package core

// The kept R2 stream as a record log (capture.Log): a shard's log must be
// exactly the stream a per-packet slice used to hold, the envelope's packet
// section a copy of it, and a restored run's log the envelope's bytes in
// place.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"openresolver/internal/analysis"
	"openresolver/internal/capture"
	"openresolver/internal/ipv4"
	"openresolver/internal/paperdata"
)

// refAppendPackets is the reference packet-stream encoder, written from
// the envelope format's definition with no capture.Log code: a uvarint
// count, then per packet the kind byte, At as a varint, source and
// destination (4 bytes each, big-endian), and the uvarint-prefixed payload.
func refAppendPackets(buf []byte, pkts []capture.Packet) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(pkts)))
	for _, p := range pkts {
		buf = append(buf, byte(p.Kind))
		buf = binary.AppendVarint(buf, int64(p.At))
		buf = binary.BigEndian.AppendUint32(buf, uint32(p.Src))
		buf = binary.BigEndian.AppendUint32(buf, uint32(p.Dst))
		buf = binary.AppendUvarint(buf, uint64(len(p.Payload)))
		buf = append(buf, p.Payload...)
	}
	return buf
}

// refDecodePackets is the reference decoder for a stream known to be well
// formed: it returns the packets and the bytes after them.
func refDecodePackets(b []byte) ([]capture.Packet, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, nil, errors.New("bad count")
	}
	b = b[k:]
	var pkts []capture.Packet
	for i := uint64(0); i < n; i++ {
		p := capture.Packet{Kind: capture.Kind(b[0])}
		at, k := binary.Varint(b[1:])
		p.At = time.Duration(at)
		b = b[1+k:]
		p.Src, p.Dst = ipv4.Addr(binary.BigEndian.Uint32(b)), ipv4.Addr(binary.BigEndian.Uint32(b[4:]))
		ln, k := binary.Uvarint(b[8:])
		b = b[8+k:]
		p.Payload = b[:ln]
		b = b[ln:]
		pkts = append(pkts, p)
	}
	return pkts, b, nil
}

// logPackets collects every record of l.
func logPackets(l *capture.Log) []capture.Packet {
	var out []capture.Packet
	for it := l.Iter(); it.Next(); {
		out = append(out, it.Packet())
	}
	return out
}

// packetSection returns the packet stream of a marshaled envelope, as
// the reference decoder bounds it, and everything after the JSON state.
func packetSection(t *testing.T, env []byte) (section, streams []byte) {
	t.Helper()
	payload := env[envHeaderLen:]
	stateLen, k := binary.Uvarint(payload)
	streams = payload[k+int(stateLen):]
	_, rest, err := refDecodePackets(streams)
	if err != nil {
		t.Fatal(err)
	}
	return streams[:len(streams)-len(rest)], streams
}

// TestShardLogMatchesKeptStream runs shard 0 of a 2013 and a 2018 campaign
// that keep packets, at a scale where the log spans several chunks, and
// checks the log against the stream the per-packet slice used to keep.
// That stream is pinned by the SHA-256 of the envelope's two streams (its
// packet section and its verdicts; the JSON state before them carries wall
// time), recorded when the envelope was encoded from a []capture.Packet;
// the reference decoder turns the packet section back into those packets. The log must iterate to
// exactly them — order, At, source, destination and payload — and its
// bytes, the reference encoding of what it iterates, and the envelope's
// packet section must be one and the same.
func TestShardLogMatchesKeptStream(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Year: paperdata.Y2013, SampleShift: 10, Seed: 1, KeepPackets: true},
			"c7163c79c8a2363452b6a016f8d9b2b68fff1ee6da012afc631eea6c02dc399d"},
		{Config{Year: paperdata.Y2018, SampleShift: 10, Seed: 1, KeepPackets: true},
			"0b0a67ba1e1be05e6da52497383c548ee8527e0dba8631be491576c11d33c1be"},
	} {
		t.Run(fmt.Sprint(tc.cfg.Year), func(t *testing.T) {
			key, run := envelopeFixture(t, tc.cfg)
			env, err := marshalShardEnvelope(key, 0, run)
			if err != nil {
				t.Fatal(err)
			}
			section, streams := packetSection(t, env)
			if sum := sha256.Sum256(streams); hex.EncodeToString(sum[:]) != tc.want {
				t.Fatalf("shard 0 envelope streams digest %x, want %s", sum, tc.want)
			}
			kept, _, err := refDecodePackets(section)
			if err != nil {
				t.Fatal(err)
			}
			if uint64(len(kept)) != run.ProbeStats.Received {
				t.Fatalf("%d kept packets for %d received", len(kept), run.ProbeStats.Received)
			}
			if len(section) <= 32<<10 {
				t.Fatalf("a %d-byte stream fits one 32 KiB log chunk; the test would not cross a chunk boundary", len(section))
			}
			got := logPackets(run.r2)
			if len(got) != len(kept) || run.r2.Len() != len(kept) {
				t.Fatalf("log iterates %d packets (Len %d), want %d", len(got), run.r2.Len(), len(kept))
			}
			for i, w := range kept {
				g := got[i]
				if g.Kind != capture.KindR2 || g.Kind != w.Kind || g.At != w.At || g.Src != w.Src || g.Dst != w.Dst || !bytes.Equal(g.Payload, w.Payload) {
					t.Fatalf("packet %d: log has %+v, kept stream %+v", i, g, w)
				}
			}
			stream := run.r2.AppendStream(nil)
			if !bytes.Equal(stream, section) || !bytes.Equal(refAppendPackets(nil, got), section) {
				t.Error("log bytes, reference encoding and envelope packet section differ")
			}
			if run.r2.Size() != len(stream)-len(binary.AppendUvarint(nil, uint64(len(kept)))) {
				t.Errorf("log Size %d does not match its %d-byte stream", run.r2.Size(), len(stream))
			}
		})
	}
}

// TestRestoredLogAliasesEnvelope: validating an envelope keeps its packet
// section as the restored run's log, in place — every payload the log
// yields lies inside the envelope buffer, and a restored run holds that
// same log.
func TestRestoredLogAliasesEnvelope(t *testing.T) {
	key, run := envelopeFixture(t, Config{Year: paperdata.Y2013, SampleShift: 12, Seed: 3, KeepPackets: true})
	env, err := marshalShardEnvelope(key, 0, run)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := validateShardEnvelope(key, 0, env)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(env)))
	hi := lo + uintptr(len(env))
	n := 0
	for it := ck.R2.Iter(); it.Next(); n++ {
		p := it.Packet().Payload
		if len(p) == 0 {
			continue
		}
		if a := uintptr(unsafe.Pointer(unsafe.SliceData(p))); a < lo || a+uintptr(len(p)) > hi {
			t.Fatalf("packet %d's payload is a copy, not the envelope's bytes", n)
		}
	}
	if n == 0 || n != run.r2.Len() {
		t.Fatalf("restored log has %d packets, want %d", n, run.r2.Len())
	}
	if restored := restoreShardRun(analysis.Config{}, ck, nil); restored.r2 != ck.R2 {
		t.Error("the restored run does not hold the decoded log")
	}
}
