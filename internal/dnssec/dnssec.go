// Package dnssec implements the DNSSEC subset relevant to the paper's
// threat discussion (§VI): "DNSSEC provides the authentication and data
// integrity, which allows it to counter the DNS manipulation. However,
// DNSSEC did not yet completely replace DNS" — and the cited
// validator-counting studies (Fukuda et al., Yu et al.).
//
// The package provides zone signing (DNSKEY/RRSIG records over Ed25519,
// DNSSEC algorithm 15 per RFC 8080), record validation, and the survey
// harness that counts validating resolvers the way the cited studies do:
// serve one name with a valid signature and one with a deliberately broken
// signature, and observe which resolvers reject the bogus data.
package dnssec

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"openresolver/internal/dnswire"
)

// AlgEd25519 is the DNSSEC algorithm number for Ed25519 (RFC 8080).
const AlgEd25519 = 15

// KeyPair is a zone-signing key.
type KeyPair struct {
	Zone    string
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// GenerateKey creates a deterministic zone-signing key from a seed.
func GenerateKey(zone string, seed int64) (*KeyPair, error) {
	rng := rand.New(rand.NewSource(seed))
	seedBytes := make([]byte, ed25519.SeedSize)
	for i := range seedBytes {
		seedBytes[i] = byte(rng.Intn(256))
	}
	priv := ed25519.NewKeyFromSeed(seedBytes)
	return &KeyPair{
		Zone:    dnswire.CanonicalName(zone),
		Public:  priv.Public().(ed25519.PublicKey),
		private: priv,
	}, nil
}

// DNSKEY returns the zone's DNSKEY record (RFC 4034 §2: flags, protocol,
// algorithm, public key).
func (k *KeyPair) DNSKEY() dnswire.RR {
	rdata := make([]byte, 0, 4+len(k.Public))
	rdata = binary.BigEndian.AppendUint16(rdata, 257) // KSK flags (SEP set)
	rdata = append(rdata, 3, AlgEd25519)              // protocol, algorithm
	rdata = append(rdata, k.Public...)
	return dnswire.RR{
		Name: k.Zone, Type: dnswire.TypeDNSKEY, Class: dnswire.ClassIN,
		TTL: 3600, Data: rdata,
	}
}

// KeyTag computes the RFC 4034 Appendix B key tag of the DNSKEY.
func (k *KeyPair) KeyTag() uint16 {
	rdata := k.DNSKEY().Data
	var acc uint32
	for i, b := range rdata {
		if i&1 == 0 {
			acc += uint32(b) << 8
		} else {
			acc += uint32(b)
		}
	}
	acc += acc >> 16 & 0xFFFF
	return uint16(acc & 0xFFFF)
}

// sigRDATA is the decoded RRSIG RDATA (RFC 4034 §3.1).
type sigRDATA struct {
	TypeCovered dnswire.Type
	Algorithm   uint8
	Labels      uint8
	OrigTTL     uint32
	Expiration  uint32
	Inception   uint32
	KeyTag      uint16
	SignerName  string
	Signature   []byte
}

func (s *sigRDATA) marshal() ([]byte, error) {
	out := make([]byte, 0, 64+len(s.Signature))
	out = binary.BigEndian.AppendUint16(out, uint16(s.TypeCovered))
	out = append(out, s.Algorithm, s.Labels)
	out = binary.BigEndian.AppendUint32(out, s.OrigTTL)
	out = binary.BigEndian.AppendUint32(out, s.Expiration)
	out = binary.BigEndian.AppendUint32(out, s.Inception)
	out = binary.BigEndian.AppendUint16(out, s.KeyTag)
	var err error
	out, err = appendWireName(out, s.SignerName)
	if err != nil {
		return nil, err
	}
	return append(out, s.Signature...), nil
}

func parseSigRDATA(data []byte) (*sigRDATA, error) {
	if len(data) < 18 {
		return nil, fmt.Errorf("dnssec: RRSIG RDATA too short (%d)", len(data))
	}
	s := &sigRDATA{
		TypeCovered: dnswire.Type(binary.BigEndian.Uint16(data)),
		Algorithm:   data[2],
		Labels:      data[3],
		OrigTTL:     binary.BigEndian.Uint32(data[4:]),
		Expiration:  binary.BigEndian.Uint32(data[8:]),
		Inception:   binary.BigEndian.Uint32(data[12:]),
		KeyTag:      binary.BigEndian.Uint16(data[16:]),
	}
	name, off, err := readWireName(data, 18)
	if err != nil {
		return nil, err
	}
	s.SignerName = name
	s.Signature = append([]byte(nil), data[off:]...)
	return s, nil
}

// signedData builds the RFC 4034 §3.1.8.1 input: RRSIG RDATA (minus the
// signature) followed by the canonical RRset.
func signedData(sig *sigRDATA, name string, rrs []dnswire.RR) ([]byte, error) {
	hdr := *sig
	hdr.Signature = nil
	buf, err := hdr.marshal()
	if err != nil {
		return nil, err
	}
	for _, rr := range rrs {
		buf, err = appendWireName(buf, name)
		if err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Class))
		buf = binary.BigEndian.AppendUint32(buf, sig.OrigTTL)
		rdata := rr.Data
		if rdata == nil && rr.Type == dnswire.TypeA {
			rdata = binary.BigEndian.AppendUint32(nil, rr.A)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(rdata)))
		buf = append(buf, rdata...)
	}
	return buf, nil
}

// Sign produces the RRSIG record covering the given RRset of name.
func (k *KeyPair) Sign(name string, rrs []dnswire.RR, now time.Duration) (dnswire.RR, error) {
	if len(rrs) == 0 {
		return dnswire.RR{}, fmt.Errorf("dnssec: empty RRset")
	}
	name = dnswire.CanonicalName(name)
	inception := uint32(now / time.Second)
	sig := &sigRDATA{
		TypeCovered: rrs[0].Type,
		Algorithm:   AlgEd25519,
		Labels:      uint8(strings.Count(name, ".") + 1),
		OrigTTL:     rrs[0].TTL,
		Expiration:  inception + 30*24*3600,
		Inception:   inception,
		KeyTag:      k.KeyTag(),
		SignerName:  k.Zone,
	}
	data, err := signedData(sig, name, rrs)
	if err != nil {
		return dnswire.RR{}, err
	}
	sig.Signature = ed25519.Sign(k.private, data)
	rdata, err := sig.marshal()
	if err != nil {
		return dnswire.RR{}, err
	}
	return dnswire.RR{
		Name: name, Type: dnswire.TypeRRSIG, Class: dnswire.ClassIN,
		TTL: rrs[0].TTL, Data: rdata,
	}, nil
}

// Validator verifies RRSIGs against configured trust anchors.
type Validator struct {
	anchors map[string]ed25519.PublicKey
}

// NewValidator returns a validator trusting the given keys.
func NewValidator(keys ...*KeyPair) *Validator {
	v := &Validator{anchors: make(map[string]ed25519.PublicKey)}
	for _, k := range keys {
		v.anchors[k.Zone] = k.Public
	}
	return v
}

// ValidateMessage checks the A RRset of an answered message: it must carry
// an RRSIG from a trusted signer that verifies. It returns false for
// missing, unverifiable or forged signatures. Hook-compatible with
// dnssrv.Recursive.Validate.
func (v *Validator) ValidateMessage(qname string, msg *dnswire.Message) bool {
	qname = dnswire.CanonicalName(qname)
	var aset []dnswire.RR
	var sig *sigRDATA
	for _, rr := range msg.Answers {
		switch rr.Type {
		case dnswire.TypeA:
			if rr.Malformed {
				return false
			}
			aset = append(aset, rr)
		case dnswire.TypeRRSIG:
			parsed, err := parseSigRDATA(rr.Data)
			if err == nil && parsed.TypeCovered == dnswire.TypeA {
				sig = parsed
			}
		}
	}
	if len(aset) == 0 || sig == nil {
		return false
	}
	anchor, ok := v.anchors[sig.SignerName]
	if !ok {
		return false
	}
	data, err := signedData(sig, qname, aset)
	if err != nil {
		return false
	}
	return ed25519.Verify(anchor, data, sig.Signature)
}

// appendWireName / readWireName encode names for signature input without
// compression (RFC 4034 requires canonical, uncompressed names).
func appendWireName(dst []byte, name string) ([]byte, error) {
	name = dnswire.CanonicalName(name)
	if name == "" {
		return append(dst, 0), nil
	}
	for _, label := range strings.Split(name, ".") {
		if label == "" || len(label) > 63 {
			return nil, fmt.Errorf("dnssec: bad label %q", label)
		}
		dst = append(dst, byte(len(label)))
		dst = append(dst, label...)
	}
	return append(dst, 0), nil
}

func readWireName(data []byte, off int) (string, int, error) {
	var parts []string
	for {
		if off >= len(data) {
			return "", 0, fmt.Errorf("dnssec: truncated name")
		}
		n := int(data[off])
		off++
		if n == 0 {
			return strings.Join(parts, "."), off, nil
		}
		if n > 63 || off+n > len(data) {
			return "", 0, fmt.Errorf("dnssec: bad name encoding")
		}
		parts = append(parts, string(data[off:off+n]))
		off += n
	}
}
