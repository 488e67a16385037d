package prober

import (
	"bytes"
	"testing"

	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/paperdata"
)

// TestProbeWireMatchesEncoder pins the per-cluster template: for wide and
// narrow cluster labels and for index digits at every position, the
// patched template must be exactly what the encoder produces for the
// probe's name, with the ID set — the bytes every probe carried when each
// subdomain had its own pre-encoded query.
func TestProbeWireMatchesEncoder(t *testing.T) {
	for _, sld := range []string{sld, "x.example"} {
		p := &Prober{cfg: Config{SLD: sld, ClusterSize: maxClusterSize}}
		for _, c := range []int{0, 999, 1000, 1095} {
			p.buildTemplate(c)
			for _, idx := range []int{0, 1, 9, 10, 4999999, paperdata.ClusterSize - 1, maxClusterSize - 1} {
				for _, id := range []uint16{1, 0xBEEF} {
					prefix := []byte("pool")
					got := p.appendProbe(append([]byte(nil), prefix...), idx, id)
					want, err := dnswire.AppendQuery(prefix, id, dnssrv.AppendProbeName(nil, c, idx, sld), dnswire.TypeA)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s cluster %d index %d id %#x:\n got %x\nwant %x", sld, c, idx, id, got, want)
					}
				}
			}
		}
	}
}
