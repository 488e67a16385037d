package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"openresolver/internal/classify"
	"openresolver/internal/netsim"
	"openresolver/internal/paperdata"
)

// The determinism contract of the discrete-event mode: RunSimulation must
// keep producing bit-identical campaigns — same Report, same netsim.Stats,
// same R2 packet stream — for every (year, seed) below. The digests were
// re-baselined once when the campaign moved to the sharded engine
// (simshard.go): the fixed sub-simulation decomposition legitimately
// changed the campaign bytes relative to the single-Sim serial engine, and
// the worker-equivalence tests (parallel_sim_test.go) now pin that the
// bytes cannot depend on Workers or the machine. If a change legitimately
// alters campaign bytes again, re-derive with
//
//	GOLDEN_PRINT=1 go test ./internal/core -run TestSimulationGolden -v
//
// and say so loudly in the PR: this is the determinism contract of the
// discrete-event mode.
var simulationGoldens = map[string]string{
	"2013/seed1": "0f53abc617db30e30ccb206cfef580431725f097ed5eeffaefdab276d73c1e06",
	"2013/seed7": "0246e1fa6b3b2754092a2fb101b82e00c9d9b8f109127807a8bbf0f4153cdf4a",
	"2018/seed1": "b1042caf93f88fcf737bab45cb5e3cda9402705884f4bf23c8a4cac7df729c33",
	"2018/seed7": "4c54edfef74eb0de84e5ba5d264030fa3a510df605e818c2b0fbb7c829047d3e",
}

// faultGolden pins one adverse-network campaign bit-for-bit: Gilbert–
// Elliott burst loss stacked with duplication, reordering and corruption,
// answered by the full retransmission machinery (prober retries, adaptive
// RTO, upstream backoff). Everything SimulationDigest covers must stay
// stable, and so must the fault pipeline's intervention counters and the
// prober's retransmission counters — FaultDigest extends over both.
// Re-derive with GOLDEN_PRINT=1 (see above) if a change legitimately
// alters it. The sweep runner's golden test (internal/sweep) pins the same
// constant against a sweep cell configured identically — update both
// together.
const faultGolden = "e0ded77dface81a22b5a7685afab9b7014aadb9cd6c243c24295dc23fc13f9df"

func TestFaultGolden(t *testing.T) {
	imps, err := netsim.ParseImpairments("ge:0.02,0.3,0.05,0.9;dup:0.05;reorder:0.1,30ms;corrupt:0.02")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := RunSimulation(Config{
		Year: paperdata.Y2018, SampleShift: 14, Seed: 1, KeepPackets: true,
		Faults: FaultPlan{
			Impairments:     imps,
			Retries:         2,
			AdaptiveTimeout: true,
			UpstreamBackoff: true,
			MaxQueuedEvents: 1 << 21,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRolesGolden(t, "fault/2018/seed1", ds)
	got := FaultDigest(ds)
	if os.Getenv("GOLDEN_PRINT") != "" {
		t.Logf("fault golden: %s", got)
		return
	}
	if got != faultGolden {
		t.Errorf("fault-injection campaign diverged\n got %s\nwant %s", got, faultGolden)
	}
}

func TestSimulationGolden(t *testing.T) {
	for _, year := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		for _, seed := range []int64{1, 7} {
			key := fmt.Sprintf("%v/seed%d", year, seed)
			t.Run(key, func(t *testing.T) {
				ds, err := RunSimulation(Config{
					Year: year, SampleShift: 14, Seed: seed, KeepPackets: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				checkRolesGolden(t, key, ds)
				got := SimulationDigest(ds)
				if os.Getenv("GOLDEN_PRINT") != "" {
					t.Logf("golden %q: %s", key, got)
					return
				}
				want, ok := simulationGoldens[key]
				if !ok {
					t.Fatalf("no golden recorded for %q (got %s)", key, got)
				}
				if got != want {
					t.Errorf("simulation output diverged from the pre-swap implementation\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}

// roleGoldens pins ds.Roles — every verdict with its egress list, plus the
// per-role counts — for the TestSimulationGolden campaigns,
// TestSimulationRoleClassification's run and the TestFaultGolden campaign,
// whose corrupted packets exercise the decoders on both sides of the join.
// SimulationDigest does not cover
// the role join, so without these a broken qname join would pass every
// other golden. Re-derive with GOLDEN_PRINT=1, like the digests above.
var roleGoldens = map[string]string{
	"2013/seed1":         "a5673406caa5cb336d2b57d3e16a91d6bf5af621a029ea4f2d1e9eb0ac04ed56",
	"2013/seed7":         "2755e378a00e0e624a9fbc8d8ee4fd3d466bcc186540221b5ed798fbaab21a3a",
	"2018/seed1":         "727c991a7304699ac8df4920cce7202d28c5e879f3b009d05cd29af68797bc62",
	"2018/seed7":         "246e240494b80e7455cebaae914323bc3a66878f2cea20ada0823bc5e0590b1d",
	"2018/shift13/seed6": "b1425dfa5ee6b9b6e4c75930e3811b31dd5a0d3fa80d57fe0aeaa0367fc6a169",
	"fault/2018/seed1":   "73fe644f0bc58f9cead159dd2d31ad8e245fba2e255ebd84b9079140a4af0f36",
}

// rolesDigest hashes a role summary: the verdicts in order (responder,
// role, had-answer, egress list), then the count for each role.
func rolesDigest(s *classify.Summary) string {
	h := sha256.New()
	var buf []byte
	for _, v := range s.Verdicts {
		buf = binary.BigEndian.AppendUint32(buf[:0], uint32(v.Responder))
		buf = append(buf, byte(v.Role))
		if v.HadAnswer {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.Egress)))
		for _, e := range v.Egress {
			buf = binary.BigEndian.AppendUint32(buf, uint32(e))
		}
		h.Write(buf)
	}
	for _, r := range []classify.Role{classify.RoleRecursive, classify.RoleForwarder,
		classify.RoleFabricator, classify.RoleNonResolving} {
		fmt.Fprintf(h, "%s=%d\n", r, s.ByRole[r])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkRolesGolden compares ds.Roles against roleGoldens[key].
func checkRolesGolden(t *testing.T, key string, ds *Dataset) {
	t.Helper()
	if ds.Roles == nil {
		t.Fatalf("%s: no role classification", key)
	}
	got := rolesDigest(ds.Roles)
	if os.Getenv("GOLDEN_PRINT") != "" {
		t.Logf("roles golden %q: %s", key, got)
		return
	}
	if want := roleGoldens[key]; got != want {
		t.Errorf("%s: role classification diverged\n got %s\nwant %s", key, got, want)
	}
}

// syntheticGoldens pins the synthetic engine's report bytes: the sha256 of
// Report.JSON() for each year at a test scale and at full scale (seed 1).
// The values were recorded before the per-probe encoder was replaced by
// per-cluster wire templates, so a template that patches one byte wrong
// cannot pass. Re-derive with GOLDEN_PRINT=1, like the digests above.
var syntheticGoldens = map[string]string{
	"2013/shift10": "ac81fab9378961f019978c3e33465969f856f58f2db8188191e495ea9ca8562e",
	"2018/shift10": "c28372a1781a0bec8318c47836544de30d210838b7033e893eef4bb545c98e01",
	"2013/shift0":  "96beba15bd6a4db1011d04e9c893cb290f37a07fc2ad9786470940a0bb87b441",
	"2018/shift0":  "b0985f392a9af49b99a09707fb1618b0671a1ac3e415ee0ca068bc008a1b3d92",
}

func TestSyntheticGolden(t *testing.T) {
	for _, shift := range []uint8{10, 0} {
		for _, year := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
			key := fmt.Sprintf("%v/shift%d", year, shift)
			t.Run(key, func(t *testing.T) {
				if shift == 0 && testing.Short() {
					t.Skip("full-scale synthesis takes several seconds")
				}
				ds, err := RunSynthetic(Config{Year: year, SampleShift: shift, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				js, err := ds.Report.JSON()
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(js)
				got := hex.EncodeToString(sum[:])
				if os.Getenv("GOLDEN_PRINT") != "" {
					t.Logf("synthetic golden %q: %s", key, got)
					return
				}
				if want := syntheticGoldens[key]; got != want {
					t.Errorf("synthetic report diverged\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}
