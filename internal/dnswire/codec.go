package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Errors returned by message encoding and decoding.
var (
	ErrShortHeader    = errors.New("dnswire: message shorter than header")
	ErrTruncatedRR    = errors.New("dnswire: truncated resource record")
	ErrRDataTooLong   = errors.New("dnswire: RDATA exceeds 65535 octets")
	ErrTooManyRecords = errors.New("dnswire: section count exceeds message size")
)

// header flag bit layout within the 16-bit flags word.
const (
	flagQR     = 1 << 15
	flagAA     = 1 << 10
	flagTC     = 1 << 9
	flagRD     = 1 << 8
	flagRA     = 1 << 7
	opcodeMask = 0xF
	zMask      = 0x7
	rcodeMask  = 0xF
)

func (h Header) flags() uint16 {
	var f uint16
	if h.QR {
		f |= flagQR
	}
	f |= uint16(h.Opcode&opcodeMask) << 11
	if h.AA {
		f |= flagAA
	}
	if h.TC {
		f |= flagTC
	}
	if h.RD {
		f |= flagRD
	}
	if h.RA {
		f |= flagRA
	}
	f |= uint16(h.Z&zMask) << 4
	f |= uint16(h.Rcode & rcodeMask)
	return f
}

func headerFromFlags(id, f uint16) Header {
	return Header{
		ID:     id,
		QR:     f&flagQR != 0,
		Opcode: Opcode(f >> 11 & opcodeMask),
		AA:     f&flagAA != 0,
		TC:     f&flagTC != 0,
		RD:     f&flagRD != 0,
		RA:     f&flagRA != 0,
		Z:      uint8(f >> 4 & zMask),
		Rcode:  Rcode(f & rcodeMask),
	}
}

// Append encodes the message in wire format and appends it to dst,
// returning the extended slice.
func (m *Message) Append(dst []byte) ([]byte, error) {
	var hdr [12]byte
	binary.BigEndian.PutUint16(hdr[0:], m.Header.ID)
	binary.BigEndian.PutUint16(hdr[2:], m.Header.flags())
	binary.BigEndian.PutUint16(hdr[4:], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(hdr[6:], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(hdr[8:], uint16(len(m.Authority)))
	binary.BigEndian.PutUint16(hdr[10:], uint16(len(m.Additional)))
	dst = append(dst, hdr[:]...)

	var err error
	for _, q := range m.Questions {
		if dst, err = appendName(dst, q.Name); err != nil {
			return nil, fmt.Errorf("question %q: %w", q.Name, err)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(q.Type))
		dst = binary.BigEndian.AppendUint16(dst, uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for i := range sec {
			if dst, err = appendRR(dst, &sec[i]); err != nil {
				return nil, err
			}
		}
	}
	return dst, nil
}

// Pack encodes the message into a freshly allocated wire-format buffer.
func (m *Message) Pack() ([]byte, error) {
	return m.Append(make([]byte, 0, 128))
}

// MustPack is Pack for messages built from trusted constants; it panics on
// encoding errors and is intended for tests and static fixtures only.
func (m *Message) MustPack() []byte {
	b, err := m.Pack()
	if err != nil {
		panic(err)
	}
	return b
}

func appendRR(dst []byte, rr *RR) ([]byte, error) {
	var err error
	if dst, err = appendName(dst, rr.Name); err != nil {
		return nil, fmt.Errorf("rr %q: %w", rr.Name, err)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(rr.Type))
	dst = binary.BigEndian.AppendUint16(dst, uint16(rr.Class))
	dst = binary.BigEndian.AppendUint32(dst, rr.TTL)

	if rr.Data != nil {
		if len(rr.Data) > 0xFFFF {
			return nil, fmt.Errorf("rr %q: %w", rr.Name, ErrRDataTooLong)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(rr.Data)))
		return append(dst, rr.Data...), nil
	}
	// Synthesize RDATA from the decoded fields, in place behind an RDLENGTH
	// that is backpatched once the data is written. Synthesized RDATA is at
	// most 257 octets (a TXT string), so it always fits the length field.
	rdPos := len(dst)
	dst = append(dst, 0, 0)
	switch rr.Type {
	case TypeA:
		dst = binary.BigEndian.AppendUint32(dst, rr.A)
	case TypeNS, TypeCNAME, TypePTR:
		if dst, err = appendName(dst, rr.Target); err != nil {
			return nil, fmt.Errorf("rr %q rdata: %w", rr.Name, err)
		}
	case TypeMX:
		dst = binary.BigEndian.AppendUint16(dst, rr.Pref)
		if dst, err = appendName(dst, rr.Target); err != nil {
			return nil, fmt.Errorf("rr %q rdata: %w", rr.Name, err)
		}
	case TypeTXT:
		if len(rr.Target) > 255 {
			return nil, fmt.Errorf("rr %q: %w", rr.Name, ErrRDataTooLong)
		}
		dst = append(dst, byte(len(rr.Target)))
		dst = append(dst, rr.Target...)
	}
	binary.BigEndian.PutUint16(dst[rdPos:], uint16(len(dst)-rdPos-2))
	return dst, nil
}

// Unpack decodes a wire-format message. Decoding is deliberately tolerant of
// the protocol deviations the measurement studies — empty question sections,
// nonzero Z bits, unknown record types, malformed RDATA — but strict about
// structural integrity (truncation, bad pointers), mirroring what a libpcap
// parser would accept.
func Unpack(msg []byte) (*Message, error) {
	m := new(Message)
	if err := UnpackInto(m, msg); err != nil {
		return nil, err
	}
	return m, nil
}

// UnpackInto decodes a wire-format message into m, reusing m's section
// slices, per-record RDATA buffers, and name arena across calls. It
// accepts exactly the messages Unpack accepts and yields semantically
// identical results, with one representational difference: a section
// absent from the wire is left as a length-0 (possibly non-nil) slice
// rather than nil, so the backing arrays survive for the next call. A
// streaming consumer decoding millions of R2 packets into one scratch
// Message runs the whole parse allocation-free in steady state — name and
// TXT strings alias m's arena instead of being materialized per call.
//
// The aliasing sharpens the reuse contract: every string in m (question
// names, RR names, targets) is overwritten in place by the next UnpackInto
// on the same m. Callers that retain a decoded name past that point —
// cache keys, deferred callbacks — must strings.Clone it first. Beware
// that assigning a map entry counts as retaining the key even when the
// key is already present (the runtime may install the live operand), so
// map writes keyed by a decoded name always need the clone. On error m's
// contents are unspecified; it remains valid as scratch for the next
// call.
func UnpackInto(m *Message, msg []byte) error {
	if len(msg) < 12 {
		return ErrShortHeader
	}
	id := binary.BigEndian.Uint16(msg[0:])
	flags := binary.BigEndian.Uint16(msg[2:])
	qd := int(binary.BigEndian.Uint16(msg[4:]))
	an := int(binary.BigEndian.Uint16(msg[6:]))
	ns := int(binary.BigEndian.Uint16(msg[8:]))
	ar := int(binary.BigEndian.Uint16(msg[10:]))
	// Each question needs ≥5 bytes, each RR ≥11; reject counts that cannot fit.
	if qd*5+(an+ns+ar)*11 > len(msg)-12 {
		return ErrTooManyRecords
	}

	m.Header = headerFromFlags(id, flags)
	m.arena = m.arena[:0]
	if cap(m.arena) < len(msg) {
		// Without compression pointers or escapes, a message's names and
		// strings take fewer presentation bytes than the message itself,
		// so one reservation holds them all.
		m.arena = make([]byte, 0, len(msg))
	}
	off := 12
	var err error
	m.Questions = m.Questions[:0]
	if cap(m.Questions) < qd {
		m.Questions = make([]Question, 0, qd)
	}
	for i := 0; i < qd; i++ {
		var q Question
		if q.Name, off, err = m.readName(msg, off); err != nil {
			return fmt.Errorf("question %d: %w", i, err)
		}
		if off+4 > len(msg) {
			return fmt.Errorf("question %d: %w", i, ErrTruncatedRR)
		}
		q.Type = Type(binary.BigEndian.Uint16(msg[off:]))
		q.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	if m.Answers, off, err = m.readSection(m.Answers, an, msg, off); err != nil {
		return err
	}
	if m.Authority, off, err = m.readSection(m.Authority, ns, msg, off); err != nil {
		return err
	}
	if m.Additional, off, err = m.readSection(m.Additional, ar, msg, off); err != nil {
		return err
	}
	if off != len(msg) {
		return ErrTrailingGarbage
	}
	return nil
}

// readSection decodes n records into s, reusing its backing array (and
// each element's RDATA buffer) when large enough.
func (m *Message) readSection(s []RR, n int, msg []byte, off int) ([]RR, int, error) {
	if cap(s) < n {
		s = make([]RR, n)
	}
	s = s[:n]
	for i := 0; i < n; i++ {
		var err error
		if off, err = m.readRRInto(&s[i], msg, off); err != nil {
			return s, 0, fmt.Errorf("rr %d: %w", i, err)
		}
	}
	return s, off, nil
}

// readRRInto decodes one resource record into *rr, reusing rr's RDATA
// buffer; every other field is overwritten.
func (m *Message) readRRInto(rr *RR, msg []byte, off int) (int, error) {
	data := rr.Data[:0]
	*rr = RR{}
	var err error
	if rr.Name, off, err = m.readName(msg, off); err != nil {
		return 0, err
	}
	if off+10 > len(msg) {
		return 0, ErrTruncatedRR
	}
	rr.Type = Type(binary.BigEndian.Uint16(msg[off:]))
	rr.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
	rr.TTL = binary.BigEndian.Uint32(msg[off+4:])
	rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
	off += 10
	if off+rdlen > len(msg) {
		return 0, ErrTruncatedRR
	}
	rr.Data = append(data, msg[off:off+rdlen]...)
	rdStart := off
	off += rdlen

	switch rr.Type {
	case TypeA:
		if rdlen != 4 {
			rr.Malformed = true
			break
		}
		rr.A = binary.BigEndian.Uint32(rr.Data)
	case TypeNS, TypeCNAME, TypePTR:
		target, end, err := m.readName(msg, rdStart)
		if err != nil || end != rdStart+rdlen {
			rr.Malformed = true
			break
		}
		rr.Target = target
	case TypeMX:
		if rdlen < 3 {
			rr.Malformed = true
			break
		}
		rr.Pref = binary.BigEndian.Uint16(rr.Data)
		target, end, err := m.readName(msg, rdStart+2)
		if err != nil || end != rdStart+rdlen {
			rr.Malformed = true
			break
		}
		rr.Target = target
	case TypeTXT:
		if rdlen < 1 || int(rr.Data[0]) != rdlen-1 {
			rr.Malformed = true
			break
		}
		rr.Target = m.internBytes(rr.Data[1:])
	}
	return off, nil
}

// AppendQuery appends the wire form of a standard recursive query for
// (name, t) — RD set, one question, class IN — to dst, returning the
// extended slice. It is the zero-alloc equivalent of
// NewQuery(id, string(name), t).Pack() for names already in canonical form
// (lowercase, no trailing dot), which every generated probe name is; RFC
// 1035 §5.1 escapes are honored exactly as in Pack.
func AppendQuery(dst []byte, id uint16, name []byte, t Type) ([]byte, error) {
	var hdr [12]byte
	binary.BigEndian.PutUint16(hdr[0:], id)
	binary.BigEndian.PutUint16(hdr[2:], flagRD)
	hdr[5] = 1 // QDCount
	dst = append(dst, hdr[:]...)
	var err error
	if dst, err = appendNameBytes(dst, name); err != nil {
		return nil, fmt.Errorf("question %q: %w", name, err)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(t))
	return binary.BigEndian.AppendUint16(dst, uint16(ClassIN)), nil
}

// NewQuery builds a standard recursive query for (name, type), matching the
// probe queries of the measurement: RD set, one question, class IN.
func NewQuery(id uint16, name string, t Type) *Message {
	return &Message{
		Header:    Header{ID: id, RD: true},
		Questions: []Question{{Name: CanonicalName(name), Type: t, Class: ClassIN}},
	}
}

// NewResponse builds a response skeleton for the given query: same ID and
// question, QR set, RD copied. Flag fields beyond that are left for the
// responder to fill in — which is exactly where the studied behaviours differ.
func NewResponse(q *Message) *Message {
	resp := &Message{
		Header: Header{ID: q.Header.ID, QR: true, RD: q.Header.RD},
	}
	resp.Questions = append(resp.Questions, q.Questions...)
	return resp
}

// NewResponseInto is NewResponse writing into resp, reusing its section
// slices across calls — the per-packet reply path of the simulated servers.
// resp must not alias q and encodes byte-identically to NewResponse(q) (a
// cleared section is length-0 rather than nil, which packs the same).
func NewResponseInto(resp, q *Message) {
	resp.Header = Header{ID: q.Header.ID, QR: true, RD: q.Header.RD}
	resp.Questions = append(resp.Questions[:0], q.Questions...)
	resp.Answers = resp.Answers[:0]
	resp.Authority = resp.Authority[:0]
	resp.Additional = resp.Additional[:0]
}

// AnswerA appends an A record answering the first question with addr.
func (m *Message) AnswerA(addr uint32, ttl uint32) *Message {
	name := ""
	if q, ok := m.Question1(); ok {
		name = q.Name
	}
	m.Answers = append(m.Answers, RR{
		Name: name, Type: TypeA, Class: ClassIN, TTL: ttl, A: addr,
	})
	return m
}
