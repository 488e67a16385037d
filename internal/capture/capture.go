// Package capture implements the measurement's packet-capture artifacts
// (Fig. 2): the prober-side R2 log (the paper's modified-ZMap output), kept
// as a chunked record log (Log) and persisted to disk as a capture file
// (AppendFile, ReadFile); the flow tallies, of which the authoritative-side
// Q2/R1 stand in for the paper's tcpdump capture; and qname-based flow
// grouping.
package capture

import (
	"errors"
	"fmt"
	"time"

	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
)

// Kind identifies which leg of Fig. 2 a captured packet belongs to.
type Kind uint8

// The four flows of Fig. 2.
const (
	KindQ1 Kind = iota + 1
	KindQ2
	KindR1
	KindR2
)

// String names the flow.
func (k Kind) String() string {
	switch k {
	case KindQ1:
		return "Q1"
	case KindQ2:
		return "Q2"
	case KindR1:
		return "R1"
	case KindR2:
		return "R2"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Packet is one captured datagram with its virtual timestamp.
type Packet struct {
	Kind    Kind
	At      time.Duration
	Src     ipv4.Addr
	Dst     ipv4.Addr
	Payload []byte
}

// Counters tallies the four flows.
type Counters struct {
	Q1, Q2, R1, R2 uint64
}

// Flow is the grouped view of one probe: all packets sharing a qname
// (§III-B: "we were able to easily group Q1, Q2, R1, and R2 for each flow").
type Flow struct {
	QName   string
	Packets []Packet
}

// GroupFlows groups a log's packets by the canonical qname of their first
// question. Packets without a question group under the empty key — exactly
// the §IV-B4 population. Groups preserve packet order, and their payloads
// alias the log.
func GroupFlows(l *Log) map[string]*Flow {
	flows := make(map[string]*Flow)
	for it := l.Iter(); it.Next(); {
		p := it.Packet()
		key := ""
		if msg, err := dnswire.Unpack(p.Payload); err == nil {
			if q, ok := msg.Question1(); ok {
				key = q.Name
			}
		}
		f, ok := flows[key]
		if !ok {
			f = &Flow{QName: key}
			flows[key] = f
		}
		f.Packets = append(f.Packets, p)
	}
	return flows
}

// A capture file is one packet stream (Log.AppendStream) behind a header:
// the magic "ORDNSCAP" and a version byte. Version 1, whose records had
// fixed 22-byte headers, is no longer read.
const (
	fileMagic   = "ORDNSCAP"
	fileVersion = 2
)

var (
	// ErrBadMagic reports a capture file with the wrong header.
	ErrBadMagic = errors.New("capture: bad file magic")
	// ErrBadVersion reports an unsupported capture-file version.
	ErrBadVersion = errors.New("capture: unsupported file version")
)

// AppendFile appends the log to buf as a capture file.
func (l *Log) AppendFile(buf []byte) []byte {
	buf = append(buf, fileMagic...)
	buf = append(buf, fileVersion)
	return l.AppendStream(buf)
}

// ReadFile reads a capture file (AppendFile), validating every record. The
// log is b's records in place, as with ReadLog, so b must never be written
// while the log lives. Bytes after the packet stream are an error.
func ReadFile(b []byte) (*Log, error) {
	if len(b) < len(fileMagic)+1 {
		return nil, fmt.Errorf("capture: %d-byte file is shorter than its header", len(b))
	}
	if string(b[:len(fileMagic)]) != fileMagic {
		return nil, ErrBadMagic
	}
	if v := b[len(fileMagic)]; v != fileVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	l, rest, err := ReadLog(b[len(fileMagic)+1:])
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("capture: %d bytes after the packet stream", len(rest))
	}
	return l, nil
}
