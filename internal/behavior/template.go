package behavior

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"unsafe"

	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
)

// Template is a profile's R2 for one subdomain cluster, encoded once and
// patched per probe. The encoder writes no compression pointers and every
// probe name of a cluster has the same length, so two probes' responses
// differ only in the transaction ID, the 7 digits of each copy of the index
// label and, for AnswerTruth, the A RDATA. Build encodes the response to
// index 0 under ID 0 with BuildResponseInto and Message.Append, locates
// those bytes by re-encoding with each varying input changed, and checks
// the patched template against the encoder before use; Append then
// produces any probe's response with a copy and a few byte writes.
//
// A Template's buffers are reused by every Build and it is not safe for
// concurrent use.
type Template struct {
	wire   []byte // the response to index 0 under ID 0
	digits []int  // offset of every index label's digits in wire
	rdata  int    // offset of the A RDATA for AnswerTruth, or -1
	qname  []byte // the presentation qname; its digits are the last Append's
	qdig   int    // offset of the index digits in qname

	// Encoder scratch, reused by every Build.
	query, resp dnswire.Message
	alt         []byte
}

// Build derives t from the response profile p gives to the probes of
// cluster under sld. It returns an error if the response does not encode,
// or if its varying bytes cannot be located or do not reproduce the
// encoder's output; Append must not be called after a failed Build.
func (t *Template) Build(p Profile, cluster int, sld string) error {
	if t.qname == nil {
		// A fresh template takes its byte buffers from one allocation,
		// sized for probe responses with room in alt for two of them.
		b := make([]byte, 0, 1024)
		t.wire, t.alt, t.qname = b[0:0:256], b[256:256:768], b[768:768:1024]
	}
	t.qname = dnssrv.AppendProbeName(t.qname[:0], cluster, 0, sld)
	t.qdig = bytes.IndexByte(t.qname, '.') + 1
	t.digits, t.rdata = t.digits[:0], -1
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
	if len(t.alt) != len(t.wire) {
		return fmt.Errorf("behavior: template for %s: response length depends on the index", t.qname)
	}
	for i := 0; i < len(t.wire); i++ {
		if t.wire[i] == t.alt[i] {
			continue
		}
		end := i + dnssrv.IndexDigits
		if end > len(t.wire) || string(t.wire[i:end]) != "0000000" || string(t.alt[i:end]) != "9999999" {
			return fmt.Errorf("behavior: template for %s: byte %d varies outside an index label", t.qname, i)
		}
		t.digits = append(t.digits, i)
		i = end - 1
	}
	if p.Answer == AnswerTruth {
		if t.rdata, err = t.locateRDATA(p); err != nil {
			return err
		}
	}
	// Check the patch points on a probe that moves every one of them.
	const id, idx = 0xA5C3, 1_234_567
	dnssrv.PutProbeIndex(t.qname[t.qdig:], idx)
	if t.alt, err = t.encode(t.alt[:0], p, id, idx, dnssrv.TruthAddr(t.qname)); err != nil {
		return err
	}
	n := len(t.alt)
	if t.alt = t.Append(t.alt, id, idx); !bytes.Equal(t.alt[n:], t.alt[:n]) {
		return fmt.Errorf("behavior: template for %s does not reproduce the encoder", t.qname)
	}
	return nil
}

// locateRDATA returns the offset of the 4 bytes that change in t.wire when
// the recursion result's address does.
func (t *Template) locateRDATA(p Profile) (int, error) {
	var err error
	if t.alt, err = t.encode(t.alt[:0], p, 0, 0, 0xFFFFFFFF); err != nil {
		return -1, err
	}
	if len(t.alt) == len(t.wire) {
		for off := range t.wire {
			if t.wire[off] != t.alt[off] {
				if off+4 <= len(t.wire) && bytes.Equal(t.wire[off+4:], t.alt[off+4:]) {
					return off, nil
				}
				break
			}
		}
	}
	return -1, fmt.Errorf("behavior: template for %s: cannot locate the answer address", t.qname)
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

// Append appends the response to the probe for index idx of the template's
// cluster, under transaction ID id, to dst: the template with the ID, the
// index digits and, for AnswerTruth, the probe name's ground-truth address
// patched in. idx must be in [0, 10^7).
func (t *Template) Append(dst []byte, id uint16, idx int) []byte {
	start := len(dst)
	dst = append(dst, t.wire...)
	out := dst[start:]
	binary.BigEndian.PutUint16(out, id)
	digits := t.qname[t.qdig : t.qdig+dnssrv.IndexDigits]
	dnssrv.PutProbeIndex(digits, idx)
	for _, off := range t.digits {
		copy(out[off:], digits)
	}
	if t.rdata >= 0 {
		binary.BigEndian.PutUint32(out[t.rdata:], uint32(dnssrv.TruthAddr(t.qname)))
	}
	return dst
}
