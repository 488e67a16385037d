package dnswire

import (
	"errors"
	"fmt"
	"strings"
	"unsafe"
)

// Errors returned by name encoding and decoding.
var (
	ErrNameTooLong     = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong    = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel      = errors.New("dnswire: empty label")
	ErrTruncatedName   = errors.New("dnswire: truncated name")
	ErrBadPointer      = errors.New("dnswire: bad compression pointer")
	ErrPointerLoop     = errors.New("dnswire: compression pointer loop")
	ErrReservedLabel   = errors.New("dnswire: reserved label type")
	ErrTrailingGarbage = errors.New("dnswire: trailing bytes after message")
)

const (
	maxNameWire  = 255 // RFC 1035 §2.3.4: total name length on the wire
	maxLabelWire = 63  // RFC 1035 §2.3.4: single label length
)

// CanonicalName lowercases a domain name and strips one trailing dot, so
// "WWW.Example.COM." and "www.example.com" compare equal. DNS name matching
// is case-insensitive (RFC 1035 §2.3.3) and the flow-grouping step of the
// measurement (matching Q1/Q2/R1/R2 by qname) relies on this normalization,
// including against resolvers that apply 0x20 randomization.
func CanonicalName(name string) string {
	name = strings.TrimSuffix(name, ".")
	return strings.ToLower(name)
}

// appendName encodes a presentation-form name in uncompressed wire format
// and appends it to dst. The empty string encodes the root (a single zero
// octet). RFC 1035 §5.1 escapes are honored: "\." is a literal dot inside
// a label, "\\" a literal backslash, and "\DDD" an arbitrary octet.
// Compression on output is intentionally not implemented: none of the
// paper's flows require it and many deployed resolvers never emit pointers
// either; decoding (below) accepts compressed names from any peer.
func appendName(dst []byte, name string) ([]byte, error) {
	return appendNameAny(dst, name)
}

// appendNameBytes is appendName for names held in byte slices (the zero-
// alloc probe-name path); the encodings are identical.
func appendNameBytes(dst, name []byte) ([]byte, error) {
	return appendNameAny(dst, name)
}

func appendNameAny[T string | []byte](dst []byte, name T) ([]byte, error) {
	if len(name) == 0 || (len(name) == 1 && name[0] == '.') {
		return append(dst, 0), nil
	}
	if out, ok := appendPlainName(dst, name); ok {
		return out, nil
	}
	return appendEscapedName(dst, name)
}

// appendPlainName is the fast path of appendNameAny for the common case: a
// name without escapes whose labels and total length are all valid. It
// copies each label whole. Anything else — a backslash, an empty or
// oversized label, a name over 255 octets — reports !ok, and the caller
// re-encodes from dst with appendEscapedName, which alone produces the
// errors; the bytes written past len(dst) here are then overwritten.
func appendPlainName[T string | []byte](dst []byte, name T) ([]byte, bool) {
	if name[len(name)-1] == '.' {
		name = name[:len(name)-1]
	}
	// Without escapes every label costs its length plus one length octet,
	// so the wire form is the text plus the first length octet and the root.
	if len(name)+2 > maxNameWire {
		return dst, false
	}
	for {
		n := 0
		for n < len(name) && name[n] != '.' {
			if name[n] == '\\' {
				return dst, false
			}
			n++
		}
		if n == 0 || n > maxLabelWire {
			return dst, false
		}
		dst = append(dst, byte(n))
		dst = append(dst, name[:n]...)
		if n == len(name) {
			return append(dst, 0), true
		}
		name = name[n+1:]
	}
}

// appendEscapedName is the general encoder behind appendNameAny: it walks
// the name octet by octet, decoding escapes and validating every label.
func appendEscapedName[T string | []byte](dst []byte, name T) ([]byte, error) {
	// Trim one trailing dot, but only if it is a real separator (an even
	// number of backslashes precedes it).
	if name[len(name)-1] == '.' {
		bs := 0
		for i := len(name) - 2; i >= 0 && name[i] == '\\'; i-- {
			bs++
		}
		if bs%2 == 0 {
			name = name[:len(name)-1]
		}
	}
	// Label bytes go straight into dst behind a placeholder length octet
	// that is backpatched at each separator: no per-call scratch, no
	// closure — the hot probe-encode path must stay allocation-free.
	wireLen := 1 // terminating root octet
	lenPos := len(dst)
	dst = append(dst, 0)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '\\':
			if i+1 >= len(name) {
				return nil, fmt.Errorf("dnswire: dangling escape in %q", string(name))
			}
			next := name[i+1]
			if next >= '0' && next <= '9' {
				if i+3 >= len(name) || !isDigit(name[i+2]) || !isDigit(name[i+3]) {
					return nil, fmt.Errorf("dnswire: bad \\DDD escape in %q", string(name))
				}
				v := int(next-'0')*100 + int(name[i+2]-'0')*10 + int(name[i+3]-'0')
				if v > 255 {
					return nil, fmt.Errorf("dnswire: \\DDD escape %d out of range in %q", v, string(name))
				}
				dst = append(dst, byte(v))
				i += 3
				continue
			}
			dst = append(dst, next)
			i++
		case c == '.':
			var err error
			if wireLen, err = closeLabel(dst, lenPos, wireLen); err != nil {
				return nil, nameErr(err, string(name))
			}
			lenPos = len(dst)
			dst = append(dst, 0)
		default:
			dst = append(dst, c)
		}
	}
	if _, err := closeLabel(dst, lenPos, wireLen); err != nil {
		return nil, nameErr(err, string(name))
	}
	return append(dst, 0), nil
}

// closeLabel validates the label written at dst[lenPos+1:] and backpatches
// its length octet, returning the updated running wire length.
func closeLabel(dst []byte, lenPos, wireLen int) (int, error) {
	n := len(dst) - lenPos - 1
	if n == 0 {
		return 0, ErrEmptyLabel
	}
	if n > maxLabelWire {
		return 0, fmt.Errorf("%w: %q", ErrLabelTooLong, dst[lenPos+1:])
	}
	wireLen += 1 + n
	if wireLen > maxNameWire {
		return 0, ErrNameTooLong
	}
	dst[lenPos] = byte(n)
	return wireLen, nil
}

// nameErr attaches the offending name to closeLabel's bare sentinels.
func nameErr(err error, name string) error {
	switch {
	case errors.Is(err, ErrEmptyLabel):
		return fmt.Errorf("%w in %q", ErrEmptyLabel, name)
	case errors.Is(err, ErrNameTooLong):
		return fmt.Errorf("%w: %q", ErrNameTooLong, name)
	}
	return err
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// appendPresentation renders one wire label into presentation form,
// escaping dots, backslashes and non-printable octets (RFC 1035 §5.1), and
// lowercasing ASCII letters (names compare case-insensitively and the
// measurement groups flows by canonical qname).
func appendPresentation(dst []byte, label []byte) []byte {
	for _, c := range label {
		if !plainOctet[c] {
			return appendPresentationOctets(dst, label)
		}
	}
	return append(dst, label...)
}

// plainOctet marks the octets appendPresentation copies unchanged:
// printable, not upper case, and neither '.' nor '\\'.
var plainOctet = func() (t [256]bool) {
	for c := 0x21; c <= 0x7E; c++ {
		t[c] = c != '.' && c != '\\' && (c < 'A' || c > 'Z')
	}
	return t
}()

// appendPresentationOctets is appendPresentation one octet at a time, for
// labels that need escaping or lowercasing.
func appendPresentationOctets(dst []byte, label []byte) []byte {
	for _, c := range label {
		switch {
		case c == '.' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x21 || c > 0x7E:
			dst = append(dst, '\\', '0'+c/100, '0'+c/10%10, '0'+c%10)
		case c >= 'A' && c <= 'Z':
			dst = append(dst, c+'a'-'A')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// arenaString returns m.arena[start:] as a string aliasing the arena's
// storage — the zero-copy tail of every readName. The string stays valid
// even if later names regrow the arena (the old backing array survives
// behind the string), and is invalidated only by the next UnpackInto on m,
// which rewinds the arena and overwrites it in place.
func (m *Message) arenaString(start int) string {
	n := len(m.arena) - start
	if n == 0 {
		return ""
	}
	return unsafe.String(&m.arena[start], n)
}

// internBytes copies b into m's arena and returns it as an arena string,
// subject to the same lifetime rule as arenaString.
func (m *Message) internBytes(b []byte) string {
	start := len(m.arena)
	m.arena = append(m.arena, b...)
	return m.arenaString(start)
}

// readName decodes a possibly compressed name starting at off in msg. It
// returns the decoded name in presentation form (lowercase, no trailing
// dot) and the offset of the first byte after the name at its original
// position. The returned string aliases m's arena: it is valid until the
// next UnpackInto on m — the price of decoding millions of R2 packets
// through one scratch Message without a per-name allocation.
func (m *Message) readName(msg []byte, off int) (string, int, error) {
	start := len(m.arena)
	b := m.arena
	ptrBudget := len(msg) // each pointer must strictly decrease; budget bounds loops
	jumped := false
	next := 0 // resume offset once the first pointer is followed
	for {
		if off >= len(msg) {
			return "", 0, ErrTruncatedName
		}
		c := int(msg[off])
		switch {
		case c == 0:
			if !jumped {
				next = off + 1
			}
			m.arena = b
			return m.arenaString(start), next, nil
		case c < 64: // ordinary label
			end := off + 1 + c
			if end > len(msg) {
				return "", 0, ErrTruncatedName
			}
			if len(b) != start {
				b = append(b, '.')
			}
			if len(b)-start+c > 4*maxNameWire {
				return "", 0, ErrNameTooLong
			}
			b = appendPresentation(b, msg[off+1:end])
			off = end
		case c >= 0xC0: // compression pointer
			if off+1 >= len(msg) {
				return "", 0, ErrTruncatedName
			}
			target := (c&0x3F)<<8 | int(msg[off+1])
			if target >= off {
				return "", 0, ErrBadPointer
			}
			if ptrBudget--; ptrBudget <= 0 {
				return "", 0, ErrPointerLoop
			}
			if !jumped {
				next = off + 2
				jumped = true
			}
			off = target
		default: // 0x40 and 0x80 label types are reserved
			return "", 0, ErrReservedLabel
		}
	}
}
