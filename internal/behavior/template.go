package behavior

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"

	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
)

// Template is a profile's R2 for one subdomain cluster, encoded and decoded
// once and patched per probe in decoded form. The encoder writes no
// compression pointers and every probe name of a cluster has the same
// length, so two probes' responses differ only in the transaction ID, the
// names that carry the index label and, for AnswerTruth, the A record.
// Build encodes the response to index 0 and to index 9999999 under ID 0
// with BuildResponseInto and Message.Append, decodes both, and aliases every
// name that differs between them to the template's qname buffer; it checks
// the patched message against the decoded encoder output before use.
// Message then produces any probe's decoded response with a few writes and
// no copy.
//
// A Template's buffers are reused by every Build and it is not safe for
// concurrent use.
type Template struct {
	wire  []byte // the response to index 0 under ID 0
	qname []byte // the presentation qname; its digits are the last Message's
	qdig  int    // offset of the index digits in qname
	// last is the index qname's digits spell when the last Message set
	// them, or -1 after Build rewrote them.
	last int

	// msg is wire decoded, its index-carrying names aliasing qname; truth
	// is the index in msg.Answers of the AnswerTruth A record, or -1.
	msg   dnswire.Message
	truth int

	// Encoder and decoder scratch, reused by every Build.
	query, resp, ref dnswire.Message
	alt              []byte
}

// Build derives t from the response profile p gives to the probes of
// cluster under sld. It returns an error if the response does not encode or
// decode, or if the names that carry the index cannot be located or the
// patched message does not reproduce the decoded encoder output; Message
// must not be called after a failed Build.
func (t *Template) Build(p Profile, cluster int, sld string) error {
	if t.qname == nil {
		// A fresh template takes its byte buffers from one allocation,
		// sized for probe responses.
		b := make([]byte, 0, 768)
		t.wire, t.alt, t.qname = b[0:0:256], b[256:256:512], b[512:512:768]
	}
	t.qname = dnssrv.AppendProbeName(t.qname[:0], cluster, 0, sld)
	t.qdig = bytes.IndexByte(t.qname, '.') + 1
	t.last = -1
	var err error
	if t.wire, err = t.encode(t.wire[:0], p, 0, 0, 0); err != nil {
		return err
	}
	// Every index label's digits read 0000000 in wire and 9999999 in alt;
	// nothing else depends on the index once the answer address is fixed.
	const maxIndex = 9_999_999
	if t.alt, err = t.encode(t.alt[:0], p, 0, maxIndex, 0); err != nil {
		return err
	}
	if err := t.decode(p); err != nil {
		return err
	}
	// Check the patched message on a probe that moves every patch point.
	const id, idx = 0xA5C3, 1_234_567
	dnssrv.PutProbeIndex(t.qname[t.qdig:], idx)
	if t.alt, err = t.encode(t.alt[:0], p, id, idx, dnssrv.TruthAddr(t.qname)); err != nil {
		return err
	}
	if err := dnswire.UnpackInto(&t.ref, t.alt); err != nil || len(t.alt) != len(t.wire) || !sameMessage(t.Message(id, idx), &t.ref) {
		return fmt.Errorf("behavior: template for %s does not reproduce the encoder", t.qname)
	}
	return nil
}

// decode derives t.msg from t.wire, the response to index 0, while t.alt
// holds the response to index 9999999: it decodes both, aliases to t.qname
// every name that differs between them, and for AnswerTruth locates the A
// record. A name that merely reads like the index-0 qname, such as a CNAME
// target, is the same in both and keeps its decoded value.
func (t *Template) decode(p Profile) error {
	if err := dnswire.UnpackInto(&t.ref, t.alt); err != nil {
		return fmt.Errorf("behavior: template for %s: %w", t.qname, err)
	}
	if err := dnswire.UnpackInto(&t.msg, t.wire); err != nil {
		return fmt.Errorf("behavior: template for %s: %w", t.qname, err)
	}
	// The section counts come from the profile alone, so ref's sections
	// are as long as m's.
	m, ref := &t.msg, &t.ref
	qname := unsafe.String(unsafe.SliceData(t.qname), len(t.qname))
	alias := func(name *string, alt string) {
		if *name != alt {
			*name = qname
		}
	}
	for i := range m.Questions {
		alias(&m.Questions[i].Name, ref.Questions[i].Name)
	}
	for _, s := range [...][2][]dnswire.RR{{m.Answers, ref.Answers}, {m.Authority, ref.Authority}, {m.Additional, ref.Additional}} {
		for i := range s[0] {
			alias(&s[0][i].Name, s[1][i].Name)
			alias(&s[0][i].Target, s[1][i].Target)
		}
	}
	t.truth = -1
	if p.Answer == AnswerTruth {
		t.truth = slices.IndexFunc(m.Answers, func(rr dnswire.RR) bool { return rr.Type == dnswire.TypeA && !rr.Malformed })
		if t.truth < 0 {
			return fmt.Errorf("behavior: template for %s: no A record to patch", t.qname)
		}
	}
	return nil
}

// sameMessage reports whether a and b hold the same header, questions and
// records, field by field.
func sameMessage(a, b *dnswire.Message) bool {
	if a.Header != b.Header || !slices.Equal(a.Questions, b.Questions) {
		return false
	}
	for _, s := range [...][2][]dnswire.RR{{a.Answers, b.Answers}, {a.Authority, b.Authority}, {a.Additional, b.Additional}} {
		if !slices.EqualFunc(s[0], s[1], sameRR) {
			return false
		}
	}
	return true
}

// sameRR reports whether a and b agree in every field, RDATA included.
func sameRR(a, b dnswire.RR) bool {
	return a.Name == b.Name && a.Type == b.Type && a.Class == b.Class && a.TTL == b.TTL &&
		bytes.Equal(a.Data, b.Data) && a.A == b.A && a.Target == b.Target && a.Pref == b.Pref &&
		a.Malformed == b.Malformed
}

// encode appends the response p gives to the probe for index idx of t's
// cluster under ID id, with addr as the recursion result for AnswerTruth.
// The question names alias t.qname: they are encoded before encode returns
// and rewritten by the next call.
func (t *Template) encode(dst []byte, p Profile, id uint16, idx int, addr ipv4.Addr) ([]byte, error) {
	dnssrv.PutProbeIndex(t.qname[t.qdig:], idx)
	qname := unsafe.String(unsafe.SliceData(t.qname), len(t.qname))
	t.query.Header = dnswire.Header{ID: id, RD: true}
	t.query.Questions = append(t.query.Questions[:0],
		dnswire.Question{Name: qname, Type: dnswire.TypeA, Class: dnswire.ClassIN})
	res := dnssrv.Result{}
	if p.Answer == AnswerTruth {
		res = dnssrv.Result{Addr: addr, Rcode: dnswire.RcodeNoError, OK: true}
	}
	BuildResponseInto(&t.resp, &t.query, p, res)
	dst, err := t.resp.Append(dst)
	if err != nil {
		return nil, fmt.Errorf("behavior: template for %s: %w", t.qname, err)
	}
	return dst, nil
}

// Message returns the decoded response to the probe for index idx of the
// template's cluster under transaction ID id: the decoded template with the
// ID, the digits of the qname buffer that its index-carrying names alias
// and, for AnswerTruth, the probe name's ground-truth address in the
// answer's A and RDATA patched in. It equals dnswire.UnpackInto of the
// encoder's response field by field. The message and its names belong to
// the template and are rewritten by the next Message or Build, as
// UnpackInto's are by the next decode; callers must not modify it. idx must
// be in [0, 10^7).
//
// A cluster's probes arrive in index order, so when idx is the previous
// Message's index plus one the digits are advanced in place, like an
// odometer: the trailing 9s become 0s and the digit before them goes up by
// one. Any other index is written in full by PutProbeIndex.
func (t *Template) Message(id uint16, idx int) *dnswire.Message {
	t.msg.Header.ID = id
	if dig := t.qname[t.qdig : t.qdig+dnssrv.IndexDigits]; idx == t.last+1 && t.last >= 0 {
		i := len(dig) - 1
		for dig[i] == '9' {
			dig[i] = '0'
			i--
		}
		dig[i]++
	} else {
		dnssrv.PutProbeIndex(dig, idx)
	}
	t.last = idx
	if t.truth >= 0 {
		rr := &t.msg.Answers[t.truth]
		rr.A = uint32(dnssrv.TruthAddr(t.qname))
		binary.BigEndian.PutUint32(rr.Data, rr.A)
	}
	return &t.msg
}

// Len returns the wire length of every response the template produces.
func (t *Template) Len() int { return len(t.wire) }
