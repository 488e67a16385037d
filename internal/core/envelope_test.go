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

	"openresolver/internal/analysis"
	"openresolver/internal/capture"
	"openresolver/internal/classify"
	"openresolver/internal/dnswire"
	"openresolver/internal/obs"
	"openresolver/internal/paperdata"
)

// envelopeFixture runs shard 0 of cfg and returns the campaign key and
// the completed run that marshalShardEnvelope serializes.
func envelopeFixture(tb testing.TB, cfg Config) (string, *shardRun) {
	tb.Helper()
	sc, err := OpenShardCampaign(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	run, err := sc.engine.runShard(0, obs.NewShard("sim-0"))
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
	}{ck, logPackets(ck.R2), legacyAuthStream(ck.R2)})
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

// legacyV2ShardEnvelope is the version-2 encoder, kept only to prove that
// checkpoints which carry the authoritative packet stream instead of
// verdicts fall back to a rerun: the binary header, the JSON state, the R2
// stream, then the Q2/R1 stream where later versions have their verdicts.
func legacyV2ShardEnvelope(key string, shard int, ck *shardCheckpoint) ([]byte, error) {
	return legacyBinaryEnvelope(key, shard, 2, ck, func(buf []byte) []byte {
		buf = ck.R2.AppendStream(buf)
		return refAppendPackets(buf, legacyAuthStream(ck.R2))
	})
}

// legacyV3ShardEnvelope is the version-3 encoder, kept only to prove that
// checkpoints whose state repeats four of the prober's counters beside its
// statistics fall back to a rerun: the current layout, with those four
// fields back in the JSON state.
func legacyV3ShardEnvelope(key string, shard int, ck *shardCheckpoint) ([]byte, error) {
	st := &ck.ProbeStats
	state := struct {
		*shardCheckpoint
		Sent          uint64           `json:"sent"`
		Reused        uint64           `json:"reused"`
		Clusters      int              `json:"clusters"`
		ProbeCounters capture.Counters `json:"probe_counters"`
	}{ck, st.Sent, st.Reused, st.ClustersUsed, capture.Counters{Q1: st.Sent, R2: st.Received}}
	return legacyBinaryEnvelope(key, shard, 3, state, func(buf []byte) []byte {
		buf = ck.R2.AppendStream(buf)
		return appendVerdicts(buf, ck.Verdicts)
	})
}

// legacyBinaryEnvelope lays out a binary envelope of the given version:
// the header, state as JSON behind its length, then whatever streams
// appends, digest-stamped.
func legacyBinaryEnvelope(key string, shard int, version uint32, state any, streams func([]byte) []byte) ([]byte, error) {
	js, err := json.Marshal(state)
	if err != nil {
		return nil, err
	}
	rawKey, err := hex.DecodeString(key)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, envHeaderLen)
	copy(buf, envMagic)
	binary.BigEndian.PutUint32(buf[len(envMagic):], version)
	copy(buf[envKeyOff:], rawKey)
	binary.BigEndian.PutUint32(buf[envShardOff:], uint32(shard))
	buf = binary.AppendUvarint(buf, uint64(len(js)))
	buf = append(buf, js...)
	buf = streams(buf)
	sum := sha256.Sum256(buf[envHeaderLen:])
	copy(buf[envSumOff:], sum[:])
	return buf, nil
}

// legacyAuthStream stands in for the Q2 half of the authoritative capture
// the old layouts carried: one Q2 per responding flow, from the responder
// to the authoritative server, asking the R2's question.
func legacyAuthStream(r2 *capture.Log) []capture.Packet {
	var auth []capture.Packet
	for _, p := range logPackets(r2) {
		msg, err := dnswire.Unpack(p.Payload)
		if err != nil {
			continue
		}
		if q, ok := msg.Question1(); ok {
			auth = append(auth, capture.Packet{
				Kind: capture.KindQ2, At: p.At, Src: p.Src, Dst: AuthAddr,
				Payload: dnswire.NewQuery(msg.Header.ID, q.Name, q.Type).MustPack(),
			})
		}
	}
	return auth
}

// TestCheckpointV1EnvelopesRerun pins the version-bump fallback: a
// checkpoint directory left by the JSON (version 1) format is never
// merged. Every shard logs "rerunning shard" and re-executes, and the
// resumed campaign reproduces the cold run's bytes.
func TestCheckpointV1EnvelopesRerun(t *testing.T) {
	checkLegacyEnvelopesRerun(t, legacyShardEnvelope)
}

// TestCheckpointV2EnvelopesRerun is the same fallback for the version-2
// binary layout, whose shards carry the authoritative packet stream and no
// verdicts: restoring one would merge a campaign with its roles missing.
func TestCheckpointV2EnvelopesRerun(t *testing.T) {
	checkLegacyEnvelopesRerun(t, legacyV2ShardEnvelope)
}

// TestCheckpointV3EnvelopesRerun is the same fallback for the version-3
// layout, whose state carries the prober's Q1, R2, reuse and cluster
// counts twice. Its shards rerun rather than merge through a decoder that
// no longer knows those fields.
func TestCheckpointV3EnvelopesRerun(t *testing.T) {
	checkLegacyEnvelopesRerun(t, legacyV3ShardEnvelope)
}

// checkLegacyEnvelopesRerun rewrites every checkpoint of a kept campaign
// with encode, under the current campaign key, and requires a resume over
// them to rerun every shard and reproduce the cold run, roles included.
func checkLegacyEnvelopesRerun(t *testing.T, encode func(string, int, *shardCheckpoint) ([]byte, error)) {
	cfg := ckptTestConfig()
	cfg.SampleShift = 16
	cold := mustSimulate(t, cfg)
	want := FaultDigest(cold)

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
		old, err := encode(sc.key, i, ck)
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
		t.Errorf("campaign resumed over old checkpoints diverged\n got %s\nwant %s", got, want)
	}
	if rolesDigest(ds.Roles) != rolesDigest(cold.Roles) {
		t.Error("campaign resumed over old checkpoints lost or changed its responder roles")
	}
	if got := strings.Count(log.String(), "rerunning shard"); got != len(files) {
		t.Errorf("%d of %d old checkpoints reported for rerun:\n%s", got, len(files), log.String())
	}
	if strings.Contains(log.String(), "restored from checkpoint") {
		t.Errorf("an old checkpoint was restored:\n%s", log.String())
	}
}

// TestV2PayloadUnderV3HeaderRejected: even with its version field forged to
// the current one and its digest recomputed, a version-2 payload does not
// decode — its Q2/R1 stream is no verdict stream — so a mislabeled old
// checkpoint cannot merge with its roles missing.
func TestV2PayloadUnderV3HeaderRejected(t *testing.T) {
	key, run := envelopeFixture(t, Config{Year: paperdata.Y2013, SampleShift: 16, Seed: 3, KeepPackets: true})
	env, err := marshalShardEnvelope(key, 0, run)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := validateShardEnvelope(key, 0, env)
	if err != nil {
		t.Fatal(err)
	}
	old, err := legacyV2ShardEnvelope(key, 0, ck)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := validateShardEnvelope(key, 0, old); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("v2 envelope: got %v, want a version refusal", err)
	}
	binary.BigEndian.PutUint32(old[len(envMagic):], checkpointVersion)
	sum := sha256.Sum256(old[envHeaderLen:])
	copy(old[envSumOff:], sum[:])
	if _, err := validateShardEnvelope(key, 0, old); err == nil {
		t.Fatal("a v2 payload relabeled as the current version was accepted")
	}
}

// TestShardEnvelopeRoundTrip pins the codec: a marshaled envelope
// validates back to the run's exact R2 log, verdicts and state, and the
// restored log is the envelope's packet section rather than a copy of it.
func TestShardEnvelopeRoundTrip(t *testing.T) {
	key, run := envelopeFixture(t, Config{Year: paperdata.Y2013, SampleShift: 16, Seed: 3, KeepPackets: true})
	if run.r2.Len() == 0 || run.roles == nil || !hasEgress(run.roles.Verdicts) {
		t.Fatal("fixture shard captured no packets or no resolving verdicts; the round trip would prove nothing")
	}
	data, err := marshalShardEnvelope(key, 0, run)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := validateShardEnvelope(key, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ck.R2.AppendStream(nil), run.r2.AppendStream(nil)) {
		t.Error("R2 log changed across the envelope")
	}
	if !reflect.DeepEqual(ck.Verdicts, run.roles.Verdicts) {
		t.Error("verdicts changed across the envelope")
	}
	restored := restoreShardRun(analysis.Config{}, ck, nil)
	if !reflect.DeepEqual(restored.roles, run.roles) {
		t.Error("restored role summary differs from the shard's own")
	}
	if ck.shardCounters != run.shardCounters {
		t.Error("counters changed across the envelope")
	}
	it := ck.R2.Iter()
	it.Next()
	p := it.Packet().Payload
	before := bytes.Clone(data)
	p[0] ^= 0xFF
	if bytes.Equal(before, data) {
		t.Error("decoded payloads do not alias the envelope buffer")
	}
	p[0] ^= 0xFF
	if cap(p) != len(p) {
		t.Errorf("decoded payload capacity %d exceeds its length %d: an append could overwrite the next record", cap(p), len(p))
	}
	for i, v := range ck.Verdicts {
		if cap(v.Egress) != len(v.Egress) {
			t.Fatalf("verdict %d: egress capacity %d exceeds its length %d: an append could overwrite the next list", i, cap(v.Egress), len(v.Egress))
		}
	}
	if _, err := validateShardEnvelope(key, 1, data); err == nil || !strings.Contains(err.Error(), "names shard 0") {
		t.Errorf("wrong shard: got %v", err)
	}
}

// hasEgress reports whether any verdict names an egress resolver.
func hasEgress(vs []classify.Verdict) bool {
	for _, v := range vs {
		if len(v.Egress) > 0 {
			return true
		}
	}
	return false
}

// TestShardEnvelopeSizeBound keeps per-Q2/R1 records out of the envelope
// for good: a shard's envelope must stay smaller than its R2 stream plus 16
// bytes per verdict plus its JSON state (and the fixed header and
// lengths). Anything the authoritative capture added per packet would
// break the bound at any scale.
func TestShardEnvelopeSizeBound(t *testing.T) {
	for _, cfg := range []Config{
		{Year: paperdata.Y2013, SampleShift: 14, Seed: 1, KeepPackets: true},
		{Year: paperdata.Y2018, SampleShift: 14, Seed: 1, KeepPackets: true},
	} {
		key, run := envelopeFixture(t, cfg)
		data, err := marshalShardEnvelope(key, 0, run)
		if err != nil {
			t.Fatal(err)
		}
		stateLen, k := binary.Uvarint(data[envHeaderLen:])
		bound := envHeaderLen + k + int(stateLen) + len(run.r2.AppendStream(nil)) +
			binary.MaxVarintLen64 + 16*len(run.roles.Verdicts)
		if len(data) >= bound {
			t.Errorf("%v: envelope is %d bytes, over its %d-byte bound (R2 stream + 16 B/verdict + state)", cfg.Year, len(data), bound)
		}
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
// state, R2-stream and verdict decoders see corruption the digest would
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
	if !hasEgress(ck.Verdicts) {
		f.Fatal("fixture shard has no resolving verdicts; the verdict decoder would go unseeded")
	}
	v1, err := legacyShardEnvelope(key, 0, ck)
	if err != nil {
		f.Fatal(err)
	}
	v2, err := legacyV2ShardEnvelope(key, 0, ck)
	if err != nil {
		f.Fatal(err)
	}
	v3, err := legacyV3ShardEnvelope(key, 0, ck)
	if err != nil {
		f.Fatal(err)
	}
	payload := env[envHeaderLen:]
	stateLen, k := binary.Uvarint(payload)
	state := k + int(stateLen)
	verdicts := state + len(ck.R2.AppendStream(nil))
	f.Add(env)
	f.Add(v1)
	f.Add(v2)
	f.Add(v3)
	f.Add(payload)
	f.Add(v2[envHeaderLen:])
	// A packet or verdict count far beyond the bytes left must be refused
	// before the slice is allocated.
	f.Add(binary.AppendUvarint(bytes.Clone(payload[:state]), 1<<34))
	f.Add(binary.AppendUvarint(bytes.Clone(payload[:verdicts]), 1<<34))
	for _, n := range []int{0, len(envMagic), envHeaderLen - 1, envHeaderLen, envHeaderLen + state,
		envHeaderLen + verdicts, len(env) / 2, len(env) - 1} {
		f.Add(env[:n])
	}
	// One flipped byte in each section: magic, version, key, shard, digest,
	// the state length and the state, the R2 stream (a count, a record),
	// and the verdicts (the count, the first responder, role, had-answer
	// byte and egress count, and the last egress address).
	v := envHeaderLen + verdicts
	for _, off := range []int{0, len(envMagic), envKeyOff, envShardOff + 3, envSumOff, envHeaderLen, envHeaderLen + k + 1,
		envHeaderLen + state, envHeaderLen + state + 1, v, v + 1, v + 5, v + 6, v + 7, len(env) - 1} {
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
	if !bytes.Equal(ck.R2.AppendStream(nil), ck2.R2.AppendStream(nil)) || !reflect.DeepEqual(ck.Verdicts, ck2.Verdicts) {
		t.Fatal("R2 log or verdicts changed across a re-marshal")
	}
	third, err := encodeShardEnvelope(key, 0, ck2)
	if err != nil || !bytes.Equal(again, third) {
		t.Fatalf("re-marshal is not a fixpoint (err=%v)", err)
	}
}
