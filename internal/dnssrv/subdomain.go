// Package dnssrv implements the DNS server substrate of the measurement:
// the controlled authoritative name server with its two-tier subdomain
// clusters (paper Fig. 3), the root and TLD referral servers that stand in
// for the real hierarchy (paper Fig. 1), and a recursive-resolution engine
// with caching, timeouts and retries — the machinery honest open resolvers
// run on top of the network simulator.
package dnssrv

import (
	"fmt"
	"strconv"
	"strings"

	"openresolver/internal/ipv4"
	"openresolver/internal/paperdata"
)

// ProbeName is a parsed measurement subdomain of the two-tier structure of
// Fig. 3: orCCC.NNNNNNN.<sld>, where CCC is the cluster number and NNNNNNN
// the subdomain's index within the cluster.
type ProbeName struct {
	Cluster int
	Index   int
}

// FormatProbeName renders the probe subdomain for (cluster, index) under
// sld, zero-padded exactly as in the paper: or000.0000001.ucfsealresearch.net.
func FormatProbeName(cluster, index int, sld string) string {
	var buf [64]byte
	return string(AppendProbeName(buf[:0], cluster, index, sld))
}

// AppendProbeName appends the probe subdomain for (cluster, index) under
// sld to dst, returning the extended slice. It produces exactly the bytes
// of FormatProbeName without allocating, into buffers that the prober's
// and the synthetic engine's per-cluster wire templates reuse.
func AppendProbeName(dst []byte, cluster, index int, sld string) []byte {
	dst = append(dst, 'o', 'r')
	dst = appendZeroPad(dst, cluster, 3)
	dst = append(dst, '.')
	dst = appendZeroPad(dst, index, IndexDigits)
	dst = append(dst, '.')
	return append(dst, sld...)
}

// IndexDigits is the width of a probe name's index label: indexes below
// 10^IndexDigits keep every name of a cluster the same length, which is
// what lets an encoded probe or response be reused across a cluster with
// only its digits patched (PutProbeIndex).
const IndexDigits = 7

// PutProbeIndex writes index as the zero-padded index label's digits into
// dst[:IndexDigits], overwriting the digits of another probe name of the
// same cluster, in presentation or wire form. index must be in
// [0, 10^IndexDigits).
func PutProbeIndex(dst []byte, index int) {
	_ = dst[IndexDigits-1]
	u := uint(index)
	i := IndexDigits
	for ; i >= 2; i -= 2 {
		d := u % 100 * 2
		u /= 100
		dst[i-2], dst[i-1] = digitPairs[d], digitPairs[d+1]
	}
	if i == 1 {
		dst[0] = byte('0' + u%10)
	}
}

// digitPairs holds the two decimal digits of every n in [0, 100) at
// [2n, 2n+2).
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendZeroPad appends v zero-padded to at least width digits, matching
// fmt's %0*d (the sign, if any, precedes the padding).
func appendZeroPad(dst []byte, v, width int) []byte {
	u := uint64(v)
	if v < 0 {
		dst = append(dst, '-')
		u = -u
		width--
	}
	var digits [20]byte
	s := strconv.AppendUint(digits[:0], u, 10)
	for i := len(s); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, s...)
}

// ParseProbeName inverts FormatProbeName. The name must be under sld.
func ParseProbeName(name, sld string) (ProbeName, error) {
	suffix := "." + sld
	if !strings.HasSuffix(name, suffix) {
		return ProbeName{}, fmt.Errorf("dnssrv: %q not under %q", name, sld)
	}
	rest := strings.TrimSuffix(name, suffix)
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return ProbeName{}, fmt.Errorf("dnssrv: %q lacks two-tier labels", name)
	}
	first, second := rest[:dot], rest[dot+1:]
	// The cluster label is zero-padded to at least three digits but grows
	// past them when the sharded engine strides cluster namespaces across
	// sub-simulations (or1022.…), so accept any width ≥ 3.
	if !strings.HasPrefix(first, "or") || len(first) < 5 {
		return ProbeName{}, fmt.Errorf("dnssrv: bad cluster label %q", first)
	}
	cluster, err := strconv.Atoi(first[2:])
	if err != nil {
		return ProbeName{}, fmt.Errorf("dnssrv: bad cluster label %q: %v", first, err)
	}
	if len(second) != 7 {
		return ProbeName{}, fmt.Errorf("dnssrv: bad index label %q", second)
	}
	index, err := strconv.Atoi(second)
	if err != nil {
		return ProbeName{}, fmt.Errorf("dnssrv: bad index label %q: %v", second, err)
	}
	return ProbeName{Cluster: cluster, Index: index}, nil
}

// TruthAddr is the ground-truth A record for a probe subdomain: the zone
// generator derives each subdomain's address deterministically from its
// name, so the authoritative server, the prober and the analysis pipeline
// agree on correctness without sharing 4-billion-entry state.
//
// Addresses are placed in 96.0.0.0/6 (public, far from every Table I block
// and from the geo registry's synthetic seats), and the host part is the
// low 26 bits of the name's 64-bit FNV-1a hash. The name may be a string
// or presentation-form bytes. Every probe name ends in "." + the
// measurement's SLD, so that suffix is not hashed byte by byte: its effect
// on the 26 bits is one table load and one multiply (suffixFold), and only
// the labels in front of it go through the byte loop. Any other name is
// hashed byte by byte to its end.
func TruthAddr[T string | []byte](qname T) ipv4.Addr {
	h := uint32(fnvOffset)
	n := len(qname)
	folded := n >= len(truthSuffix) && string(qname[n-len(truthSuffix):]) == truthSuffix
	if folded {
		n -= len(truthSuffix)
	}
	for i := 0; i < n; i++ {
		h = (h ^ uint32(qname[i])) * fnvPrime
	}
	if folded {
		h = h&^0xFF*suffixMul + suffixFold[h&0xFF]
	}
	return truthBase | ipv4.Addr(h)&truthHost
}

// The ground-truth range, 96.0.0.0/6: TruthAddr sets the high 6 bits to
// truthBase's and hashes the name into the rest.
const (
	truthBase ipv4.Addr = 0x60000000
	truthHost ipv4.Addr = 0x03FFFFFF
)

// IsTruthAddr reports whether addr is qname's ground-truth address, the
// check the analysis makes on every A answer. An address outside the
// ground-truth range fails without hashing the name. The synthetic engine
// computed the same address when it built the answer; the analysis hashes
// the name again on purpose, as its own check of what the resolver sent.
func IsTruthAddr(addr ipv4.Addr, qname string) bool {
	return addr&^truthHost == truthBase && addr == TruthAddr(qname)
}

// FNV-1a's 64-bit offset basis and prime, reduced to the 32 bits TruthAddr
// computes in. A step h = (h ^ b) * prime only carries upwards, so the low
// 26 bits of the 32-bit hash are those of the 64-bit one; the prime
// 2^40 + 435 reduces to 435.
const (
	fnvOffset = 14695981039346656037 & 0xFFFFFFFF
	fnvPrime  = 1099511628211 & 0xFFFFFFFF
)

// truthSuffix is the suffix every probe name shares.
const truthSuffix = "." + paperdata.SLD

// suffixMul and suffixFold fold truthSuffix into one step. Split the hash
// before the suffix into its low byte lo and the rest hi (a multiple of
// 256). XOR with a name byte touches only lo, and the multiply adds lo's
// carries into hi but never the reverse, so after the suffix's bytes the
// hash is hi·prime^len(truthSuffix) plus a value that depends on lo alone:
// suffixFold[lo], the hash of the suffix started from lo.
var suffixMul, suffixFold = foldSuffix()

func foldSuffix() (mul uint32, fold [256]uint32) {
	mul = 1
	for range len(truthSuffix) {
		mul *= fnvPrime
	}
	for lo := range fold {
		h := uint32(lo)
		for i := 0; i < len(truthSuffix); i++ {
			h = (h ^ uint32(truthSuffix[i])) * fnvPrime
		}
		fold[lo] = h
	}
	return mul, fold
}
