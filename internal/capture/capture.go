// Package capture implements the measurement's packet-capture artifacts:
// the prober-side log of Q1/R2 (the paper's modified-ZMap output), kept as
// a chunked record log (Log), and the authoritative-side tally of Q2/R1
// (the paper's tcpdump capture, Fig. 2), plus qname-based flow grouping and
// a pcap-like binary log format for persisting captures to disk.
package capture

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
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

// ProbeLog is the prober-side capture: it counts Q1 (storing billions of
// identical probes is pointless — ZMap does not either) and keeps R2
// packets in a record log, optionally forwarding them to a streaming sink.
type ProbeLog struct {
	counters Counters
	// Keep controls R2 retention; when false packets go only to Sink.
	Keep bool
	// Sink, if set, receives every R2 as it arrives. The packet's Payload
	// is valid only during the call: without Keep it is the datagram's own
	// buffer, which the network reuses once the delivery returns.
	Sink func(Packet)
	r2   Log
}

// NewProbeLog returns a retaining probe log.
func NewProbeLog() *ProbeLog { return &ProbeLog{Keep: true} }

// CountQ1 records n probes sent.
func (l *ProbeLog) CountQ1(n uint64) { l.counters.Q1 += n }

// AddR2 records one response received at the prober. Only a kept packet
// is copied out of the datagram's buffer, into the log's current chunk.
func (l *ProbeLog) AddR2(at time.Duration, dg netsim.Datagram) {
	l.counters.R2++
	p := Packet{Kind: KindR2, At: at, Src: dg.Src, Dst: dg.Dst, Payload: dg.Payload}
	if l.Keep {
		p.Payload = l.r2.Append(p)
	}
	if l.Sink != nil {
		l.Sink(p)
	}
}

// Counters returns the flow tallies.
func (l *ProbeLog) Counters() Counters { return l.counters }

// R2Log returns the kept responses, in arrival order.
func (l *ProbeLog) R2Log() *Log { return &l.r2 }

// AuthLog is the authoritative-side capture; it implements dnssrv.Tap. It
// counts Q2 and R1 and keeps no packets: a simulation shard indexes each
// Q2's qname for the role join instead (classify.Index), since the join
// reads nothing else of the capture.
type AuthLog struct {
	counters Counters
}

// Packet implements dnssrv.Tap.
func (l *AuthLog) Packet(inbound bool, _ time.Duration, _ netsim.Datagram, _ *dnswire.Message) {
	if inbound {
		l.counters.Q2++
	} else {
		l.counters.R1++
	}
}

// Counters returns the flow tallies.
func (l *AuthLog) Counters() Counters { return l.counters }

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

// Binary log format: a fixed magic header then length-prefixed records.
// Like pcap it is stream-appendable and self-describing enough to replay.
const logMagic = "ORDNSCAP"

const logVersion = 1

var (
	// ErrBadMagic reports a log with the wrong header.
	ErrBadMagic = errors.New("capture: bad log magic")
	// ErrBadVersion reports an unsupported log version.
	ErrBadVersion = errors.New("capture: unsupported log version")
)

// Writer persists packets to a binary capture log.
type Writer struct {
	w      *bufio.Writer
	wrote  uint64
	closed bool
}

// NewWriter writes the log header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(logMagic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(logVersion); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one packet record.
func (w *Writer) Write(p Packet) error {
	if w.closed {
		return errors.New("capture: write after close")
	}
	var hdr [22]byte
	hdr[0] = byte(p.Kind)
	binary.BigEndian.PutUint64(hdr[1:], uint64(p.At))
	binary.BigEndian.PutUint32(hdr[9:], uint32(p.Src))
	binary.BigEndian.PutUint32(hdr[13:], uint32(p.Dst))
	binary.BigEndian.PutUint32(hdr[17:], uint32(len(p.Payload)))
	// hdr[21] reserved.
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(p.Payload); err != nil {
		return err
	}
	w.wrote++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() uint64 { return w.wrote }

// Close flushes the log.
func (w *Writer) Close() error {
	w.closed = true
	return w.w.Flush()
}

// Reader reads a binary capture log.
type Reader struct {
	r *bufio.Reader
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(logMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != logMagic {
		return nil, ErrBadMagic
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != logVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	return &Reader{r: br}, nil
}

// Next returns the next packet, or io.EOF at the end of the log.
func (r *Reader) Next() (Packet, error) {
	var hdr [22]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Packet{}, io.ErrUnexpectedEOF
		}
		return Packet{}, err
	}
	p := Packet{
		Kind: Kind(hdr[0]),
		At:   time.Duration(binary.BigEndian.Uint64(hdr[1:])),
		Src:  ipv4.Addr(binary.BigEndian.Uint32(hdr[9:])),
		Dst:  ipv4.Addr(binary.BigEndian.Uint32(hdr[13:])),
	}
	n := binary.BigEndian.Uint32(hdr[17:])
	if n > 1<<16 {
		return Packet{}, fmt.Errorf("capture: record size %d exceeds datagram limit", n)
	}
	p.Payload = make([]byte, n)
	if _, err := io.ReadFull(r.r, p.Payload); err != nil {
		return Packet{}, io.ErrUnexpectedEOF
	}
	return p, nil
}
