// Package fabric distributes a sharded simulation campaign across
// processes and machines (DESIGN.md §15). A coordinator expands the
// campaign into the same fixed shard plan a single-process run computes,
// hands out shard leases to workers over a small length-prefixed TCP job
// protocol, and folds the returned checkpoint envelopes through the
// ordered merge — so a campaign spread over N remote workers is
// byte-identical to `orsurvey -workers N` on one machine.
//
// The protocol is deliberately thin because the hard guarantees live
// below it, in internal/core:
//
//   - the shard plan is a pure function of the campaign Config, so both
//     sides derive it independently and only shard *indexes* cross the
//     wire, next to the campaign itself: each LEASE carries a core.Spec,
//     which the worker compiles with Spec.Config;
//   - results travel as the self-validating checkpoint envelope of
//     DESIGN.md §13, verbatim — the coordinator re-verifies version,
//     campaign key, shard index and payload digest before merging, so a
//     corrupted or mismatched envelope degrades to "rerun shard";
//   - the merge folds shards in plan order with at-most-once recording,
//     so duplicate RESULTs, lease-expiry races and worker crashes cannot
//     change a byte of the output, only the wall-clock time.
//
// Wire format: every frame is a 4-byte big-endian length followed by that
// many bytes. A message is one frame of JSON, except RESULT, whose JSON
// frame is followed by one raw frame holding the shard's envelope bytes:
// the envelope is already a binary, self-validating record, so it crosses
// the wire as itself. The conversation is
// strictly paired from the worker's point of view:
//
//	worker → HELLO{proto, name}        coordinator → WELCOME{proto, heartbeat}
//	worker → READY                     coordinator → LEASE{key, spec, shard} | DONE
//	worker → PROGRESS{shard}…          (heartbeats while the shard runs)
//	worker → RESULT{key, shard} envelope | NACK{key, shard, error}
//	worker → READY                     …
//
// A coordinator that cannot speak the worker's protocol version answers
// HELLO with ERROR and closes the connection. HELLO, WELCOME and ERROR
// keep the JSON framing of every version, so a skewed peer is always
// refused cleanly.
package fabric

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"openresolver/internal/core"
)

// ProtoVersion is the fabric protocol version. HELLO carries it; the
// coordinator refuses workers whose version differs, because a version
// skew could mean a different shard plan or envelope layout — and the
// whole design rests on both sides deriving identical bytes. Version 4
// ships version-4 envelopes, whose state carries each prober counter once;
// version 3 repeated four of them, and version 2 carried the authoritative
// packet stream where later versions carry responder verdicts.
const ProtoVersion = 4

// maxFrame bounds one message: a frame, or a RESULT's JSON frame and
// envelope frame together. The largest legitimate message is a RESULT
// carrying one shard's checkpoint envelope — a few MiB at paper scale — so
// 64 MiB rejects corrupt or hostile length prefixes without ever clipping
// real traffic.
const maxFrame = 64 << 20

// frameChunk is the first allocation for a frame body. readBody grows the
// buffer only as bytes arrive, so a length prefix the peer never backs
// with data costs at most this much.
const frameChunk = 64 << 10

// Message types.
const (
	msgHello    = "hello"
	msgWelcome  = "welcome"
	msgReady    = "ready"
	msgLease    = "lease"
	msgDone     = "done"
	msgProgress = "progress"
	msgResult   = "result"
	msgNack     = "nack"
	msgError    = "error"
)

// message is the single wire envelope; Type selects which fields are
// meaningful. One struct instead of one type per message keeps the
// framing layer trivial: every frame decodes the same way, and unknown
// fields from a (hypothetical) newer same-version peer are ignored.
type message struct {
	Type string `json:"type"`
	// Proto is the sender's protocol version (HELLO, WELCOME).
	Proto int `json:"proto,omitempty"`
	// Name labels the worker in coordinator logs (HELLO).
	Name string `json:"name,omitempty"`
	// Key is the campaign key the message concerns (LEASE, RESULT, NACK).
	Key string `json:"key,omitempty"`
	// HeartbeatMillis tells the worker how often to send PROGRESS while a
	// shard runs (WELCOME).
	HeartbeatMillis int64 `json:"heartbeat_millis,omitempty"`
	// Spec describes the campaign so the worker can compile it (LEASE).
	Spec *core.Spec `json:"spec,omitempty"`
	// Shard is the shard index (LEASE, PROGRESS, RESULT, NACK). Never
	// omitempty: shard 0 is a real shard.
	Shard int `json:"shard"`
	// Envelope is the shard's checkpoint envelope, verbatim (RESULT). It
	// travels as the raw frame after the RESULT's JSON frame.
	Envelope []byte `json:"-"`
	// Error describes a failure (NACK, ERROR).
	Error string `json:"error,omitempty"`
}

// writeFrame marshals m and writes it as one length-prefixed frame — two
// for a RESULT, whose envelope follows as a raw frame. Everything goes out
// in a single Write so a message is never torn by the sender (the reader
// still tolerates torn frames from dying peers).
func writeFrame(w io.Writer, m *message) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("fabric: marshal %s: %w", m.Type, err)
	}
	size := len(body)
	if m.Type == msgResult {
		size += len(m.Envelope)
	}
	if size > maxFrame {
		return fmt.Errorf("fabric: %s message of %d bytes exceeds the %d-byte limit", m.Type, size, maxFrame)
	}
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, 8+size), uint32(len(body)))
	buf = append(buf, body...)
	if m.Type == msgResult {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Envelope)))
		buf = append(buf, m.Envelope...)
	}
	_, err = w.Write(buf)
	return err
}

// readFrame reads one message: a length-prefixed JSON frame and, for a
// RESULT, the raw envelope frame after it. A connection that dies
// mid-prefix or mid-body surfaces as io.ErrUnexpectedEOF (io.EOF only at a
// clean message boundary). A length prefix beyond what is left of the
// maxFrame budget is rejected before any allocation, and bodies are
// allocated as their bytes arrive, so a corrupt prefix cannot balloon
// memory.
func readFrame(r io.Reader) (*message, error) {
	body, err := readBody(r, maxFrame, "")
	if err != nil {
		return nil, err
	}
	var m message
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("fabric: bad frame: %w", err)
	}
	if m.Type == msgResult {
		env, err := readBody(r, maxFrame-len(body), "RESULT envelope ")
		if err == io.EOF {
			err = fmt.Errorf("fabric: torn frame: connection closed before the RESULT envelope: %w", io.ErrUnexpectedEOF)
		}
		if err != nil {
			return nil, err
		}
		m.Envelope = env
	}
	return &m, nil
}

// readBody reads one length-prefixed frame body of at most limit bytes;
// what names the frame in errors.
func readBody(r io.Reader, limit int, what string) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("fabric: torn frame: connection closed inside a %slength prefix: %w", what, err)
		}
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if uint64(size) > uint64(limit) {
		return nil, fmt.Errorf("fabric: %sframe of %d bytes exceeds the %d-byte limit", what, size, limit)
	}
	n := int(size)
	body := make([]byte, 0, min(n, frameChunk))
	for len(body) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(n-len(body), len(body)))
		}
		got, err := io.ReadFull(r, body[len(body):min(cap(body), n)])
		body = body[:len(body)+got]
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("fabric: torn frame: connection closed inside a %d-byte %sbody: %w", n, what, io.ErrUnexpectedEOF)
			}
			return nil, err
		}
	}
	return body, nil
}
