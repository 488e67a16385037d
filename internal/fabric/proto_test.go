package fabric

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"openresolver/internal/core"
	"openresolver/internal/netsim"
)

// The framing layer's failure modes are where a distributed protocol
// rots: a dying peer tears a frame, a corrupt prefix asks for gigabytes,
// a version-skewed peer speaks a different dialect. Each must surface as
// a crisp error, never a hang or an allocation bomb.

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &message{Type: msgResult, Key: "k", Shard: 0, Envelope: []byte("payload")}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Key != in.Key || out.Shard != 0 || string(out.Envelope) != "payload" {
		t.Fatalf("round trip mangled the frame: %+v", out)
	}
}

// Shard 0 must survive JSON marshalling — an omitempty tag on Shard
// would silently turn "shard 0" into "no shard field".
func TestFrameShardZeroSurvives(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, &message{Type: msgLease, Shard: 0}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"shard":0`)) {
		t.Fatalf("shard 0 dropped from the wire: %s", buf.Bytes()[4:])
	}
}

func TestReadFrameTornPrefix(t *testing.T) {
	_, err := readFrame(strings.NewReader("\x00\x00"))
	if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn prefix: got %v, want ErrUnexpectedEOF", err)
	}
	if !strings.Contains(err.Error(), "torn frame") {
		t.Fatalf("torn prefix error should say so: %v", err)
	}
}

func TestReadFrameTornBody(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString(`{"type":"ready"`) // 15 of the promised 100 bytes
	_, err := readFrame(&buf)
	if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn body: got %v, want ErrUnexpectedEOF", err)
	}
}

func TestReadFrameCleanEOF(t *testing.T) {
	if _, err := readFrame(strings.NewReader("")); err != io.EOF {
		t.Fatalf("clean close at a frame boundary must be io.EOF, got %v", err)
	}
}

func TestReadFrameOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	_, err := readFrame(bytes.NewReader(hdr[:]))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized frame: got %v, want a limit rejection", err)
	}
}

func TestWriteFrameOversized(t *testing.T) {
	err := writeFrame(io.Discard, &message{Type: msgResult, Envelope: make([]byte, maxFrame)})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized write: got %v, want a limit rejection", err)
	}
}

// frame renders one raw length-prefixed frame.
func frame(body string) string {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	return string(hdr[:]) + body
}

// A RESULT's envelope crosses the wire as a raw frame after the JSON one,
// not inside it: the JSON frame must not carry the envelope bytes.
func TestResultEnvelopeIsRawFrame(t *testing.T) {
	var buf bytes.Buffer
	env := []byte("ORCK\x00\x00\x00\x02binary")
	if err := writeFrame(&buf, &message{Type: msgResult, Key: "k", Shard: 3, Envelope: env}); err != nil {
		t.Fatal(err)
	}
	wire := buf.String()
	head := frame(`{"type":"result","key":"k","shard":3}`)
	if want := head + frame(string(env)); wire != want {
		t.Fatalf("RESULT on the wire:\n got %q\nwant %q", wire, want)
	}
}

// A RESULT whose envelope frame is missing, torn or oversized is a
// protocol error, never a RESULT with a partial envelope.
func TestReadFrameResultEnvelopeFaults(t *testing.T) {
	head := frame(`{"type":"result","key":"k","shard":0}`)
	var big [4]byte
	binary.BigEndian.PutUint32(big[:], maxFrame)
	for _, tc := range []struct {
		name, wire, want string
		torn             bool
	}{
		{"missing", head, "before the RESULT envelope", true},
		{"torn prefix", head + "\x00\x00", "RESULT envelope length prefix", true},
		{"short", head + frame("0123456789")[:9], "RESULT envelope body", true},
		{"oversize", head + string(big[:]), "exceeds", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := readFrame(strings.NewReader(tc.wire))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %+v, %v; want an error containing %q", m, err, tc.want)
			}
			if tc.torn != errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("torn=%t but error %v", tc.torn, err)
			}
		})
	}
}

// readFrameAlloc returns the bytes readFrame allocates on wire.
func readFrameAlloc(wire []byte) (uint64, *message, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := readFrame(bytes.NewReader(wire))
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, m, err
}

// allocBound is what readFrame may allocate for n input bytes: a first
// chunk per frame, then memory that follows the bytes actually received.
func allocBound(n int) uint64 { return uint64(2*frameChunk + 4*n + 16<<10) }

// FuzzReadFrame feeds untrusted bytes to the frame reader. Properties: no
// panic; every rejection is an error; allocation follows the input length
// and never exceeds maxFrame; and an accepted message writes back out and
// reads again to the same bytes.
func FuzzReadFrame(f *testing.F) {
	var big, unbacked [4]byte
	binary.BigEndian.PutUint32(big[:], maxFrame+1)
	binary.BigEndian.PutUint32(unbacked[:], maxFrame-64)
	result := frame(`{"type":"result","key":"k","shard":2}`)
	for _, seed := range []string{
		frame(`{"type":"hello","proto":2,"name":"w0"}`),
		frame(`{"type":"lease","key":"k","spec":{"year":2018,"shift":14,"seed":1,"loss":"loss:0.2"},"shard":0}`),
		result + frame("ORCK envelope bytes"),
		"",
		"\x00\x00",
		string(big[:]),
		string(unbacked[:]) + "{",
		frame(`{"type":"ready"`),
		result,
		result + frame("ORCK envelope bytes")[:10],
		result + string(big[:]),
		result + string(unbacked[:]) + "ORCK",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		alloc, m, err := readFrameAlloc(data)
		if bound := min(allocBound(len(data)), maxFrame+allocBound(0)); alloc > bound {
			t.Fatalf("%d input bytes cost %d bytes of allocation, want ≤ %d", len(data), alloc, bound)
		}
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := writeFrame(&first, m); err != nil {
			t.Fatalf("accepted %s message does not write back: %v", m.Type, err)
		}
		again, err := readFrame(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written-back %s message does not read: %v", m.Type, err)
		}
		var second bytes.Buffer
		if err := writeFrame(&second, again); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%s message is not stable across a write/read (err=%v)", m.Type, err)
		}
	})
}

// The wire spec must round-trip every bytes-shaping Config field through
// a LEASE frame and back into an identical fault plan — this is what lets
// the campaign key certify coordinator/worker agreement.
func TestCampaignSpecRoundTrip(t *testing.T) {
	const loss = "ge:0.02,0.3,0.05,0.9;dup:0.05;reorder:0.1,30ms;corrupt:0.02"
	imps, err := netsim.ParseImpairments(loss)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(t)
	spec := core.SpecFor(cfg, loss)
	var buf bytes.Buffer
	if err := writeFrame(&buf, &message{Type: msgLease, Key: "k", Spec: &spec, Shard: 3}); err != nil {
		t.Fatal(err)
	}
	lease, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lease.Spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if got.Year != cfg.Year || got.SampleShift != cfg.SampleShift || got.Seed != cfg.Seed ||
		got.KeepPackets != cfg.KeepPackets || got.PacketsPerSec != cfg.PacketsPerSec {
		t.Fatalf("scalar fields diverged: %+v vs %+v", got, cfg)
	}
	if got.Faults.Retries != cfg.Faults.Retries || got.Faults.AdaptiveTimeout != cfg.Faults.AdaptiveTimeout ||
		got.Faults.UpstreamBackoff != cfg.Faults.UpstreamBackoff || got.Faults.MaxQueuedEvents != cfg.Faults.MaxQueuedEvents {
		t.Fatalf("fault plan diverged: %+v vs %+v", got.Faults, cfg.Faults)
	}
	if netsim.DescribeImpairments(got.Faults.Impairments) != netsim.DescribeImpairments(imps) {
		t.Fatalf("impairments diverged: %s vs %s",
			netsim.DescribeImpairments(got.Faults.Impairments), netsim.DescribeImpairments(imps))
	}
	if s := core.SpecFor(cfg, "none"); s.Loss != "" {
		t.Fatalf(`"none" should normalize to an empty loss spec, got %q`, s.Loss)
	}
}

// A LEASE's bytes are protocol: a worker of the same ProtoVersion must
// decode every spec field under the same JSON name, so the frame is pinned.
func TestLeaseFrameBytes(t *testing.T) {
	spec := core.Spec{Year: 2018, Shift: 14, Seed: 1, PPS: 5000, Keep: true, Loss: "loss:0.1",
		Retries: 2, Adaptive: true, Backoff: true, MaxEvents: 1 << 21}
	var buf bytes.Buffer
	if err := writeFrame(&buf, &message{Type: msgLease, Key: "k", Spec: &spec, Shard: 3}); err != nil {
		t.Fatal(err)
	}
	const want = `{"type":"lease","key":"k","spec":{"year":2018,"shift":14,"seed":1,"pps":5000,` +
		`"keep_packets":true,"loss":"loss:0.1","retries":2,"adaptive_timeout":true,` +
		`"upstream_backoff":true,"max_events":2097152},"shard":3}`
	if got := string(buf.Bytes()[4:]); got != want {
		t.Fatalf("LEASE frame changed:\n got %s\nwant %s", got, want)
	}
}
