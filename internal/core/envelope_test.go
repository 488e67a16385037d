package core

// Shard-envelope codec tests (DESIGN.md §13): the version-bump fallback,
// the layer benchmark for marshal + validate, and the fuzz target for the
// decoder that reads checkpoint files and fabric RESULT envelopes.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"openresolver/internal/capture"
	"openresolver/internal/obs"
	"openresolver/internal/paperdata"
)

// envelopeFixture runs shard 0 of cfg and returns the campaign key and
// the completed run that marshalShardEnvelope serializes.
func envelopeFixture(tb testing.TB, cfg Config) (string, *simShardRun) {
	tb.Helper()
	sc, err := OpenShardCampaign(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	run, err := runSimShard(sc.env, sc.shards[0], obs.NewShard("sim-0"))
	if err != nil {
		tb.Fatal(err)
	}
	return sc.key, run
}

// legacyShardEnvelope is the version-1 encoder, kept only to prove that
// checkpoints written before the binary layout fall back to a rerun: a
// JSON wrapper around a digest-stamped JSON payload whose packets are
// JSON objects with base64 payloads.
func legacyShardEnvelope(key string, shard int, ck *shardCheckpoint) ([]byte, error) {
	payload, err := json.Marshal(struct {
		*shardCheckpoint
		R2Packets   []capture.Packet `json:"r2_packets,omitempty"`
		AuthPackets []capture.Packet `json:"auth_packets,omitempty"`
	}{ck, ck.R2Packets, ck.AuthPackets})
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(payload)
	return json.Marshal(struct {
		Version  int             `json:"version"`
		Campaign string          `json:"campaign"`
		Shard    int             `json:"shard"`
		SHA256   string          `json:"payload_sha256"`
		Payload  json.RawMessage `json:"payload"`
	}{1, key, shard, hex.EncodeToString(sum[:]), payload})
}

// TestCheckpointV1EnvelopesRerun pins the version-bump fallback: a
// checkpoint directory left by the JSON (version 1) format is never
// merged. Every shard logs "rerunning shard" and re-executes, and the
// resumed campaign reproduces the cold run's bytes.
func TestCheckpointV1EnvelopesRerun(t *testing.T) {
	cfg := ckptTestConfig()
	cfg.SampleShift = 16
	want := FaultDigest(mustSimulate(t, cfg))

	dir := t.TempDir()
	kept := cfg
	kept.Checkpoints = CheckpointPlan{Dir: dir, Keep: true}
	mustSimulate(t, kept)
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.ckpt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoints written (err=%v)", err)
	}
	sc, err := OpenShardCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := validateShardEnvelope(sc.key, i, data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		old, err := legacyShardEnvelope(sc.key, i, ck)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f, old, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var log bytes.Buffer
	resumed := cfg
	resumed.Checkpoints = CheckpointPlan{Dir: dir, Log: &log}
	ds, err := RunSimulation(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got := FaultDigest(ds); got != want {
		t.Errorf("campaign resumed over v1 checkpoints diverged\n got %s\nwant %s", got, want)
	}
	if got := strings.Count(log.String(), "rerunning shard"); got != len(files) {
		t.Errorf("%d of %d v1 checkpoints reported for rerun:\n%s", got, len(files), log.String())
	}
	if strings.Contains(log.String(), "restored from checkpoint") {
		t.Errorf("a v1 checkpoint was restored:\n%s", log.String())
	}
}

// TestShardEnvelopeRoundTrip pins the codec: a marshaled envelope
// validates back to the run's exact packet streams and state, and the
// packet payloads alias the envelope buffer rather than copying it.
func TestShardEnvelopeRoundTrip(t *testing.T) {
	key, run := envelopeFixture(t, Config{Year: paperdata.Y2013, SampleShift: 16, Seed: 3, KeepPackets: true})
	if len(run.r2) == 0 || len(run.authPackets) == 0 {
		t.Fatal("fixture shard captured no packets; the round trip would prove nothing")
	}
	data, err := marshalShardEnvelope(key, 0, run)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := validateShardEnvelope(key, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck.R2Packets, run.r2) || !reflect.DeepEqual(ck.AuthPackets, run.authPackets) {
		t.Error("packet streams changed across the envelope")
	}
	if ck.Sent != run.sent || ck.ProbeStats != run.probeStats || ck.NetStats != run.netStats {
		t.Error("counters changed across the envelope")
	}
	p := ck.R2Packets[0].Payload
	before := bytes.Clone(data)
	p[0] ^= 0xFF
	if bytes.Equal(before, data) {
		t.Error("decoded payloads do not alias the envelope buffer")
	}
	p[0] ^= 0xFF
	if cap(p) != len(p) {
		t.Errorf("decoded payload capacity %d exceeds its length %d: an append could overwrite the next record", cap(p), len(p))
	}
	if _, err := validateShardEnvelope(key, 1, data); err == nil || !strings.Contains(err.Error(), "names shard 0") {
		t.Errorf("wrong shard: got %v", err)
	}
}

// BenchmarkShardEnvelope times one shard's envelope through both sides of
// the codec — marshalShardEnvelope on the worker or checkpoint writer,
// validateShardEnvelope on the coordinator or resume path — and reports
// the envelope's size. One 2013 shard at shift 10 keeps its packets, the
// way checkpointed and fabric campaigns do.
func BenchmarkShardEnvelope(b *testing.B) {
	key, run := envelopeFixture(b, Config{Year: paperdata.Y2013, SampleShift: 10, Seed: 1, KeepPackets: true})
	var size int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := marshalShardEnvelope(key, 0, run)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := validateShardEnvelope(key, 0, data); err != nil {
			b.Fatal(err)
		}
		size = len(data)
	}
	b.ReportMetric(float64(size), "envelope_bytes")
}

// FuzzShardEnvelope feeds untrusted bytes to the envelope decoder twice:
// as a whole envelope (so the header checks see every corruption), and as
// a payload stamped with a valid header and digest (so the structured
// state and packet-stream decoders see corruption the digest would
// otherwise hide). Properties: no panic, every rejection is an error, and
// an accepted envelope re-marshals and validates to an equal checkpoint.
func FuzzShardEnvelope(f *testing.F) {
	key, run := envelopeFixture(f, Config{Year: paperdata.Y2013, SampleShift: 18, Seed: 3, KeepPackets: true})
	env, err := marshalShardEnvelope(key, 0, run)
	if err != nil {
		f.Fatal(err)
	}
	ck, err := validateShardEnvelope(key, 0, env)
	if err != nil {
		f.Fatal(err)
	}
	v1, err := legacyShardEnvelope(key, 0, ck)
	if err != nil {
		f.Fatal(err)
	}
	payload := env[envHeaderLen:]
	stateLen, k := binary.Uvarint(payload)
	state := k + int(stateLen)
	f.Add(env)
	f.Add(v1)
	f.Add(payload)
	// A packet count far beyond the bytes left must be refused before the
	// slice is allocated.
	f.Add(binary.AppendUvarint(bytes.Clone(payload[:state]), 1<<34))
	for _, n := range []int{0, len(envMagic), envHeaderLen - 1, envHeaderLen, envHeaderLen + state, len(env) / 2, len(env) - 1} {
		f.Add(env[:n])
	}
	// One flipped byte in each section: magic, version, key, shard, digest,
	// the state length and the state, and the packet streams (a count, a
	// record).
	for _, off := range []int{0, len(envMagic), envKeyOff, envShardOff + 3, envSumOff, envHeaderLen, envHeaderLen + k + 1,
		envHeaderLen + state, envHeaderLen + state + 1, len(env) - 1} {
		flipped := bytes.Clone(env)
		flipped[off] ^= 0xFF
		f.Add(flipped)
		f.Add(flipped[envHeaderLen:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEnvelope(t, key, data)
		stamped := append(bytes.Clone(env[:envHeaderLen]), data...)
		sum := sha256.Sum256(data)
		copy(stamped[envSumOff:], sum[:])
		checkEnvelope(t, key, stamped)
	})
}

// checkEnvelope validates data; when accepted, the checkpoint must
// re-marshal to an envelope that validates to an equal checkpoint, and
// re-marshaling that must reproduce the same bytes.
func checkEnvelope(t *testing.T, key string, data []byte) {
	ck, err := validateShardEnvelope(key, 0, data)
	if err != nil {
		return
	}
	again, err := encodeShardEnvelope(key, 0, ck)
	if err != nil {
		t.Fatalf("accepted checkpoint does not re-marshal: %v", err)
	}
	ck2, err := validateShardEnvelope(key, 0, again)
	if err != nil {
		t.Fatalf("re-marshaled envelope rejected: %v", err)
	}
	if !reflect.DeepEqual(ck.R2Packets, ck2.R2Packets) || !reflect.DeepEqual(ck.AuthPackets, ck2.AuthPackets) {
		t.Fatal("packet streams changed across a re-marshal")
	}
	third, err := encodeShardEnvelope(key, 0, ck2)
	if err != nil || !bytes.Equal(again, third) {
		t.Fatalf("re-marshal is not a fixpoint (err=%v)", err)
	}
}
