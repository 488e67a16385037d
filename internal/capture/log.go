package capture

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"openresolver/internal/ipv4"
)

// Log is an append-only log of packet records held in fixed-size chunks.
// A record is the kind byte, At as a varint of nanoseconds, the source and
// destination addresses (4 bytes each, big-endian), and a uvarint payload
// length followed by the payload bytes — the record layout of a checkpoint
// envelope's packet stream, so a log is written into an envelope by copying
// its chunks and read back by validating it in place (ReadLog).
//
// A record never straddles two chunks: a record longer than a chunk gets a
// chunk of its own. A full chunk is never written again, so the payload of
// an appended record stays valid, and unchanged, for the log's lifetime.
// The zero Log is empty and ready to use. A nil *Log reads as empty.
type Log struct {
	chunks [][]byte
	n      int // records
	size   int // record bytes over every chunk
}

// logChunk is the capacity of a fresh chunk: a few hundred R2s, so growing
// the log never copies a record and wastes at most one part-full chunk.
const logChunk = 32 << 10

// minRecord is the length of the smallest record: an empty payload at time
// zero.
const minRecord = 1 + 1 + 4 + 4 + 1

// maxRecordOverhead bounds a record's length beyond its payload.
const maxRecordOverhead = 1 + binary.MaxVarintLen64 + 4 + 4 + binary.MaxVarintLen64

// Append adds p as the log's next record and returns the record's payload,
// which aliases the log (capacity-capped, so appending to it cannot reach
// the next record).
func (l *Log) Append(p Packet) []byte {
	need := maxRecordOverhead + len(p.Payload)
	last := len(l.chunks) - 1
	if last < 0 || cap(l.chunks[last])-len(l.chunks[last]) < need {
		l.chunks = append(l.chunks, make([]byte, 0, max(logChunk, need)))
		last++
	}
	c := l.chunks[last]
	before := len(c)
	c = append(c, byte(p.Kind))
	c = binary.AppendVarint(c, int64(p.At))
	c = binary.BigEndian.AppendUint32(c, uint32(p.Src))
	c = binary.BigEndian.AppendUint32(c, uint32(p.Dst))
	c = binary.AppendUvarint(c, uint64(len(p.Payload)))
	off := len(c)
	c = append(c, p.Payload...)
	l.chunks[last] = c
	l.n++
	l.size += len(c) - before
	return c[off:len(c):len(c)]
}

// Len returns the number of records.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return l.n
}

// Size returns the length of the records in bytes.
func (l *Log) Size() int {
	if l == nil {
		return 0
	}
	return l.size
}

// AppendStream appends the log to buf as one packet stream: the uvarint
// record count followed by the records, copied chunk by chunk.
func (l *Log) AppendStream(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(l.Len()))
	if l != nil {
		for _, c := range l.chunks {
			buf = append(buf, c...)
		}
	}
	return buf
}

// ConcatLogs returns one log that reads the records of logs in order. It
// shares their chunks instead of copying them, each capacity-capped, so
// appending to the result starts a chunk of its own and never writes into
// theirs. Nil logs are skipped.
func ConcatLogs(logs ...*Log) *Log {
	out := &Log{}
	k := 0
	for _, l := range logs {
		k += len(l.chunksOrNil())
	}
	out.chunks = make([][]byte, 0, k)
	for _, l := range logs {
		for _, c := range l.chunksOrNil() {
			out.chunks = append(out.chunks, c[:len(c):len(c)])
		}
		out.n += l.Len()
		out.size += l.Size()
	}
	return out
}

func (l *Log) chunksOrNil() [][]byte {
	if l == nil {
		return nil
	}
	return l.chunks
}

// ReadLog reads one packet stream (AppendStream) off the front of b,
// validating every record, and returns it as a log together with the bytes
// after it (an empty stream reads as a nil log). The count is checked
// against the bytes that remain, and each payload length before it is
// taken. The log is b's records in place —
// capacity-capped, not copied — so b must never be written while the log
// lives.
func ReadLog(b []byte) (*Log, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, nil, errors.New("bad packet count")
	}
	b = b[k:]
	if n > uint64(len(b)/minRecord) {
		return nil, nil, fmt.Errorf("%d packets cannot fit in %d bytes", n, len(b))
	}
	rest := b
	for i := uint64(0); i < n; i++ {
		if len(rest) < minRecord {
			return nil, nil, fmt.Errorf("packet %d: truncated stream", i)
		}
		if kind := Kind(rest[0]); kind < KindQ1 || kind > KindR2 {
			return nil, nil, fmt.Errorf("packet %d: unknown kind %d", i, rest[0])
		}
		_, k := binary.Varint(rest[1:])
		if k <= 0 || len(rest) < 1+k+8 {
			return nil, nil, fmt.Errorf("packet %d: truncated record", i)
		}
		rest = rest[1+k+8:]
		ln, k := binary.Uvarint(rest)
		if k <= 0 {
			return nil, nil, fmt.Errorf("packet %d: bad payload length", i)
		}
		rest = rest[k:]
		if ln > uint64(len(rest)) {
			return nil, nil, fmt.Errorf("packet %d: %d-byte payload overruns the %d bytes left", i, ln, len(rest))
		}
		rest = rest[ln:]
	}
	if n == 0 {
		return nil, rest, nil
	}
	// The log and its one chunk header share an allocation.
	size := len(b) - len(rest)
	r := &struct {
		Log
		chunk [1][]byte
	}{}
	r.chunk[0] = b[:size:size]
	r.Log = Log{chunks: r.chunk[:], n: int(n), size: size}
	return &r.Log, rest, nil
}

// Iter returns a cursor over the log's records in append order.
func (l *Log) Iter() Iter { return Iter{chunks: l.chunksOrNil()} }

// Iter reads a log's records in order:
//
//	for it := l.Iter(); it.Next(); {
//		p := it.Packet()
//	}
//
// It reads the log in place and allocates nothing.
type Iter struct {
	chunks [][]byte
	rest   []byte
	p      Packet
}

// Next advances to the next record and reports whether there is one.
func (it *Iter) Next() bool {
	for len(it.rest) == 0 {
		if len(it.chunks) == 0 {
			return false
		}
		it.rest, it.chunks = it.chunks[0], it.chunks[1:]
	}
	b := it.rest
	at, k := binary.Varint(b[1:])
	it.p = Packet{
		Kind: Kind(b[0]),
		At:   time.Duration(at),
		Src:  ipv4.Addr(binary.BigEndian.Uint32(b[1+k:])),
		Dst:  ipv4.Addr(binary.BigEndian.Uint32(b[5+k:])),
	}
	b = b[9+k:]
	n, k := binary.Uvarint(b)
	b = b[k:]
	it.p.Payload = b[:n:n]
	it.rest = b[n:]
	return true
}

// Packet returns the current record. Its payload aliases the log.
func (it *Iter) Packet() Packet { return it.p }
