package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Campaign digests are the determinism contract of the discrete-event mode:
// the golden tests pin them against recorded constants, and the sweep
// runner (cmd/orsweep) stamps every cell artifact with one so a sweep cell
// can be cross-checked bit-for-bit against the same campaign run
// standalone. They live in the package proper (not the test files) because
// both consumers hash the identical byte stream — having two
// implementations would let them drift.

// SimulationDigest hashes everything RunSimulation promises to keep
// stable: the rendered report tables, the packet counters, the
// subdomain-pool accounting, and the raw R2 stream in arrival order
// (KeepPackets runs only; without packets the digest still covers the
// tables and counters).
func SimulationDigest(ds *Dataset) string {
	h := sha256.New()
	r := ds.Report
	for _, tbl := range []string{
		r.RenderTableII(), r.RenderTableIII(), r.RenderTableIV(),
		r.RenderTableV(), r.RenderTableVI(), r.RenderTableVII(),
		r.RenderTableVIII(), r.RenderTableIX(), r.RenderTableX(),
		r.RenderGeo(),
	} {
		h.Write([]byte(tbl))
	}
	fmt.Fprintf(h, "stats=%+v clusters=%d reused=%d\n",
		ds.NetStats, ds.ClustersUsed, ds.SubdomainsReused)
	var num [8]byte
	for it := ds.R2Packets.Iter(); it.Next(); {
		p := it.Packet()
		binary.BigEndian.PutUint64(num[:], uint64(p.At))
		h.Write(num[:])
		binary.BigEndian.PutUint32(num[:4], uint32(p.Src))
		h.Write(num[:4])
		binary.BigEndian.PutUint32(num[:4], uint32(p.Dst))
		h.Write(num[:4])
		h.Write(p.Payload)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// FaultDigest extends SimulationDigest over the fault pipeline's
// intervention counters and the prober's retransmission counters — the
// full adverse-network determinism contract. On a pristine campaign the
// extra fields are all zero, so FaultDigest is equally well-defined there
// and is what the sweep runner records for every cell.
func FaultDigest(ds *Dataset) string {
	h := sha256.New()
	fmt.Fprintf(h, "base=%s faults=%+v probe=%+v\n",
		SimulationDigest(ds), ds.FaultStats, ds.ProbeStats)
	return hex.EncodeToString(h.Sum(nil))
}
