package core

// Shard-granular checkpoint/restore for both campaign modes (DESIGN.md
// §13). A week-scale campaign (the paper's ran 7d5h) must survive a process
// crash and resume mid-campaign, not restart from zero: the shard engine's
// fixed plan (campaign.go) gives natural checkpoint units, so every
// completed shard's run is written as one self-validating file at the
// shard boundary, and a restarted campaign with the same configuration
// loads the completed shards and runs only the missing ones. The merge is
// identical either way, so a resumed campaign is byte-identical to an
// uninterrupted one.
//
// Every file is stamped with a campaign key (a digest of the configuration
// and the full shard plan) and a payload digest, and written atomically
// (temp + write + fsync + rename). A checkpoint that fails validation for
// any reason — torn write, short write, version or campaign mismatch — is
// discarded with a warning and its shard re-runs; corrupt state is never
// silently merged.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"openresolver/internal/analysis"
	"openresolver/internal/capture"
	"openresolver/internal/classify"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
	"openresolver/internal/obs"
)

// ErrInterrupted reports a campaign stopped cooperatively by its context:
// no new shards were started, in-flight shards drained and checkpointed,
// and rerunning the same configuration resumes from what completed.
var ErrInterrupted = errors.New("campaign interrupted")

// CheckpointPlan configures shard-granular checkpoint/restore in either
// mode: every completed shard persists atomically, and a rerun with the same
// configuration and Dir runs only the rest, producing byte-identical output.
type CheckpointPlan struct {
	// Dir receives one checkpoint file per completed shard
	// (shard-NNN.ckpt). Empty disables checkpointing.
	Dir string
	// FS overrides the filesystem the store writes through; nil uses the
	// real one. Tests inject torn/short/failing writers here.
	FS CheckpointFS
	// Log receives human-readable notes: shards restored, invalid
	// checkpoints discarded, write failures survived. Nil discards them.
	// Nothing written here affects campaign bytes.
	Log io.Writer
	// Keep retains the checkpoint files after a campaign completes.
	// Default is to remove them: a finished campaign's artifacts supersede
	// its checkpoints.
	Keep bool
}

// enabled reports whether the plan asks for checkpointing at all.
func (p CheckpointPlan) enabled() bool { return p.Dir != "" }

// CheckpointFS is the narrow filesystem surface the checkpoint store
// needs. The production implementation (osCheckpointFS) performs real
// atomic durable writes; fault-injection tests substitute writers that
// tear, truncate, or fail at chosen points to prove recovery.
type CheckpointFS interface {
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any previous content.
	Create(name string) (CheckpointFile, error)
	// Rename atomically replaces newpath with oldpath and makes the
	// rename durable (directory sync) where the platform supports it.
	Rename(oldpath, newpath string) error
	ReadFile(name string) ([]byte, error)
	Remove(name string) error
}

// CheckpointFile is one writable checkpoint temp file.
type CheckpointFile interface {
	io.Writer
	// Sync flushes the file's bytes to stable storage.
	Sync() error
	Close() error
}

// osCheckpointFS is the real filesystem.
type osCheckpointFS struct{}

func (osCheckpointFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osCheckpointFS) Create(name string) (CheckpointFile, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (osCheckpointFS) Rename(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	// Make the rename itself durable: fsync the containing directory.
	// Failure here is not fatal — the data survives an orderly exit either
	// way, and the load side validates everything it reads.
	if d, err := os.Open(filepath.Dir(newpath)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

func (osCheckpointFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osCheckpointFS) Remove(name string) error             { return os.Remove(name) }

// checkpointVersion is the on-disk format version; any change to the
// envelope layout, the payload shape or the campaign-key recipe must bump
// it, invalidating every older checkpoint rather than misreading it.
const checkpointVersion = 4

// The version-4 envelope is a fixed header followed by the payload:
//
//	magic "ORCK" | version u32 | campaign key [32] | shard u32 |
//	payload SHA-256 [32] | payload
//
// Integers are big-endian; the campaign key is the raw digest that
// campaignKey renders in hex. The payload is the shard's small structured
// state as JSON, behind a uvarint length, followed by the R2 packet stream
// (the shard's capture.Log, copied chunk by chunk) and the shard's
// responder verdicts (appendVerdicts).
// Version 3 repeated four of the prober's counters beside its statistics,
// and version 2 carried the authoritative Q2/R1 packet stream where the
// verdicts now are; checkpoints of either rerun.
const (
	envMagic     = "ORCK"
	envKeyOff    = len(envMagic) + 4
	envShardOff  = envKeyOff + sha256.Size
	envSumOff    = envShardOff + 4
	envHeaderLen = envSumOff + sha256.Size
)

// shardCheckpoint is the decoded form of one completed shard (shardRun) —
// exactly the fields the merges fold, so a restored shard merges
// indistinguishably from a freshly run one. The JSON tags cover the
// structured state; the R2 log and the verdicts travel as binary
// records. The authoritative capture is not here: each shard joins it
// against its own R2s before it finishes, and only the verdicts leave.
type shardCheckpoint struct {
	shardCounters
	Acc      *analysis.AccumulatorState `json:"acc"`
	Obs      *obs.ShardState            `json:"obs,omitempty"`
	R2       *capture.Log               `json:"-"`
	Verdicts []classify.Verdict         `json:"-"`
}

// checkpointStore writes and validates the per-shard checkpoint files of
// one campaign. Writes happen concurrently from shard workers (distinct
// files); the log writer is the only shared mutable state and is guarded.
type checkpointStore struct {
	fs   CheckpointFS
	dir  string
	key  string
	keep bool

	mu   sync.Mutex
	logw io.Writer
}

// campaignKey digests everything that shapes a campaign's bytes: the
// engine ("sim" or "synth", which keeps the two modes' keys, and so their
// checkpoints, disjoint), the configuration scalars, the fault plan
// (impairments by their canonical configuration description — never
// pointer identity), and the shard plan, one line per shard. Checkpoints
// written under a different key are invalid by construction: resuming a
// 2013 campaign with 2018 checkpoints, or after a shard-plan change, reruns
// everything instead of merging mismatched state. Workers is absent on
// purpose: scheduling never changes a byte.
func campaignKey(engine string, cfg Config, plan keyPlan) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s ckpt v%d year=%d shift=%d seed=%d pps=%d keep=%t\n",
		engine, checkpointVersion, cfg.Year, cfg.SampleShift, cfg.Seed, cfg.pps(), cfg.KeepPackets)
	fmt.Fprintf(h, "retries=%d adaptive=%t backoff=%t maxev=%d imps=%s\n",
		cfg.Faults.Retries, cfg.Faults.AdaptiveTimeout, cfg.Faults.UpstreamBackoff,
		cfg.Faults.MaxQueuedEvents, netsim.DescribeImpairments(cfg.Faults.Impairments))
	var line []byte
	for i := 0; i < plan.shards; i++ {
		line = append(plan.line(line[:0], i), '\n')
		h.Write(line)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// keyPlan is a shard plan as campaignKey reads it: the shard count, and
// line, which appends shard i's line to buf. Both engines write their lines
// through appendPlanLine into one reused buffer, so keying a campaign builds
// no string per shard.
type keyPlan struct {
	shards int
	line   func(buf []byte, i int) []byte
}

// appendPlanLine appends the line every shard plan starts with, "shard i
// [start,end) name=a+b": the shard's probe range and where its private
// state starts (a cohort and an offset into it, or a cluster namespace).
func appendPlanLine(buf []byte, i int, start, end uint64, name string, a, b uint64) []byte {
	buf = strconv.AppendInt(append(buf, "shard "...), int64(i), 10)
	buf = strconv.AppendUint(append(buf, " ["...), start, 10)
	buf = strconv.AppendUint(append(buf, ','), end, 10)
	buf = append(append(append(buf, ") "...), name...), '=')
	buf = strconv.AppendUint(buf, a, 10)
	return strconv.AppendUint(append(buf, '+'), b, 10)
}

// openCheckpointStore prepares the checkpoint directory of the campaign
// identified by key.
func openCheckpointStore(plan CheckpointPlan, key string) (*checkpointStore, error) {
	fs := plan.FS
	if fs == nil {
		fs = osCheckpointFS{}
	}
	if err := fs.MkdirAll(plan.Dir); err != nil {
		return nil, fmt.Errorf("core: checkpoint dir: %w", err)
	}
	logw := plan.Log
	if logw == nil {
		logw = io.Discard
	}
	return &checkpointStore{
		fs:   fs,
		dir:  plan.Dir,
		key:  key,
		keep: plan.Keep,
		logw: logw,
	}, nil
}

func (s *checkpointStore) path(shard int) string {
	return filepath.Join(s.dir, fmt.Sprintf("shard-%03d.ckpt", shard))
}

// logf serializes warning output across concurrent shard workers.
func (s *checkpointStore) logf(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.logw, format, args...)
}

// marshalShardEnvelope serializes one completed shard as the
// self-validating checkpoint envelope: the versioned header binding
// (campaign key, shard index) to the digest-stamped payload. The same
// bytes serve two transports — the checkpoint store renames them into
// shard-NNN.ckpt, and the distributed fabric carries them verbatim as the
// raw frame after a RESULT — so one validator guards both.
func marshalShardEnvelope(key string, shard int, run *shardRun) ([]byte, error) {
	var verdicts []classify.Verdict
	if run.roles != nil {
		verdicts = run.roles.Verdicts
	}
	return encodeShardEnvelope(key, shard, &shardCheckpoint{
		shardCounters: run.shardCounters,
		Acc:           run.acc.State(),
		Obs:           run.obs.State(),
		R2:            run.r2,
		Verdicts:      verdicts,
	})
}

// encodeShardEnvelope lays ck out as a version-4 envelope in a single
// allocation: the header, the structured state, the R2 log's chunks, the
// verdicts, and finally the digest over everything after the header.
func encodeShardEnvelope(key string, shard int, ck *shardCheckpoint) ([]byte, error) {
	state, err := json.Marshal(ck)
	if err != nil {
		return nil, err
	}
	rawKey, err := hex.DecodeString(key)
	if err != nil || len(rawKey) != sha256.Size {
		return nil, fmt.Errorf("campaign key %q is not a hex SHA-256 digest", key)
	}
	size := envHeaderLen + binary.MaxVarintLen64 + len(state) +
		binary.MaxVarintLen64 + ck.R2.Size() + verdictsSize(ck.Verdicts)
	buf := make([]byte, envHeaderLen, size)
	copy(buf, envMagic)
	binary.BigEndian.PutUint32(buf[len(envMagic):], checkpointVersion)
	copy(buf[envKeyOff:], rawKey)
	binary.BigEndian.PutUint32(buf[envShardOff:], uint32(shard))
	buf = binary.AppendUvarint(buf, uint64(len(state)))
	buf = append(buf, state...)
	buf = ck.R2.AppendStream(buf)
	buf = appendVerdicts(buf, ck.Verdicts)
	sum := sha256.Sum256(buf[envHeaderLen:])
	copy(buf[envSumOff:], sum[:])
	return buf, nil
}

// A packet stream is a uvarint record count followed by the records, in
// capture.Log's record layout: capture.Log.AppendStream writes one and
// capture.ReadLog validates one in place.

// A verdict stream is a uvarint record count followed by the records, in
// strictly ascending responder order. A record is the responder (4 bytes,
// big-endian), the role byte, the had-answer byte (0 or 1), and a uvarint
// egress count followed by that many 4-byte addresses; minVerdictRecord is
// the smallest.
const minVerdictRecord = 4 + 1 + 1 + 1

// verdictsSize bounds the encoded size of one verdict stream.
func verdictsSize(vs []classify.Verdict) int {
	n := binary.MaxVarintLen64
	for i := range vs {
		n += 4 + 1 + 1 + binary.MaxVarintLen64 + 4*len(vs[i].Egress)
	}
	return n
}

// appendVerdicts appends vs to buf as one verdict stream.
func appendVerdicts(buf []byte, vs []classify.Verdict) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for i := range vs {
		v := &vs[i]
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.Responder))
		hadAnswer := byte(0)
		if v.HadAnswer {
			hadAnswer = 1
		}
		buf = append(buf, byte(v.Role), hadAnswer)
		buf = binary.AppendUvarint(buf, uint64(len(v.Egress)))
		for _, e := range v.Egress {
			buf = binary.BigEndian.AppendUint32(buf, uint32(e))
		}
	}
	return buf
}

// decodeVerdicts reads one verdict stream off the front of b and returns
// the bytes after it. A first pass checks every record — the count and each
// egress count against the bytes that remain, the role range, the
// had-answer byte and the responder order — so nothing is allocated for a
// malformed stream; the second fills one verdict slice and one egress
// arena that every Egress list is cut from.
func decodeVerdicts(b []byte) ([]classify.Verdict, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, nil, errors.New("bad verdict count")
	}
	b = b[k:]
	if n > uint64(len(b)/minVerdictRecord) {
		return nil, nil, fmt.Errorf("%d verdicts cannot fit in %d bytes", n, len(b))
	}
	if n == 0 {
		return nil, b, nil
	}
	rest, egress := b, 0
	var prev uint32
	for i := uint64(0); i < n; i++ {
		if len(rest) < minVerdictRecord {
			return nil, nil, fmt.Errorf("verdict %d: truncated stream", i)
		}
		resp := binary.BigEndian.Uint32(rest)
		if i > 0 && resp <= prev {
			return nil, nil, fmt.Errorf("verdict %d: responder %v out of order", i, ipv4.Addr(resp))
		}
		prev = resp
		if role := classify.Role(rest[4]); role < classify.RoleRecursive || role > classify.RoleNonResolving {
			return nil, nil, fmt.Errorf("verdict %d: unknown role %d", i, rest[4])
		}
		if rest[5] > 1 {
			return nil, nil, fmt.Errorf("verdict %d: bad had-answer byte %d", i, rest[5])
		}
		m, k := binary.Uvarint(rest[6:])
		if k <= 0 {
			return nil, nil, fmt.Errorf("verdict %d: bad egress count", i)
		}
		rest = rest[6+k:]
		if m > uint64(len(rest)/4) {
			return nil, nil, fmt.Errorf("verdict %d: %d egress addresses overrun the %d bytes left", i, m, len(rest))
		}
		egress += int(m)
		rest = rest[4*m:]
	}
	vs := make([]classify.Verdict, n)
	var arena []ipv4.Addr
	if egress > 0 {
		arena = make([]ipv4.Addr, egress)
	}
	for i := range vs {
		vs[i] = classify.Verdict{
			Responder: ipv4.Addr(binary.BigEndian.Uint32(b)),
			Role:      classify.Role(b[4]),
			HadAnswer: b[5] == 1,
		}
		m, k := binary.Uvarint(b[6:])
		b = b[6+k:]
		if m > 0 {
			e := arena[:m:m]
			arena = arena[m:]
			for j := range e {
				e[j] = ipv4.Addr(binary.BigEndian.Uint32(b[4*j:]))
			}
			vs[i].Egress = e
			b = b[4*m:]
		}
	}
	return vs, rest, nil
}

// restoreShardRun rebuilds a mergeable shard run from a validated
// checkpoint payload, feeding the checkpointed observability state into
// msh. The restored run carries exactly the fields the merges fold,
// so it merges indistinguishably from a freshly executed one.
func restoreShardRun(accCfg analysis.Config, ck *shardCheckpoint, msh *obs.Shard) *shardRun {
	run := &shardRun{
		shardCounters: ck.shardCounters,
		acc:           analysis.NewAccumulatorFromState(accCfg, ck.Acc),
		r2:            ck.R2,
		roles:         classify.Summarize(ck.Verdicts),
		obs:           msh,
	}
	msh.LoadState(ck.Obs)
	return run
}

// write persists one completed shard atomically: marshal, digest-stamp,
// write to a temp file, fsync, rename into place. A write failure is
// survivable by design — the campaign continues and only resumability of
// this one shard is lost — so errors are logged, the temp file is removed
// best-effort, and nothing propagates into the campaign result.
func (s *checkpointStore) write(shard int, run *shardRun) {
	data, err := marshalShardEnvelope(s.key, shard, run)
	if err != nil {
		s.logf("core: checkpoint shard %d: marshal: %v (continuing without)\n", shard, err)
		return
	}
	s.writeRaw(shard, data)
}

// writeRaw persists pre-marshaled envelope bytes for one shard. The fabric
// coordinator feeds RESULT envelopes through here unchanged — they are the
// identical byte format — making distributed campaigns exactly as
// crash-resumable as local ones.
func (s *checkpointStore) writeRaw(shard int, data []byte) {
	path := s.path(shard)
	tmp := path + ".tmp"
	if err := s.writeTemp(tmp, data); err != nil {
		s.logf("core: checkpoint shard %d: %v (continuing without)\n", shard, err)
		_ = s.fs.Remove(tmp)
		return
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		s.logf("core: checkpoint shard %d: rename: %v (continuing without)\n", shard, err)
		_ = s.fs.Remove(tmp)
	}
}

// writeTemp writes data durably to tmp, detecting short writes.
func (s *checkpointStore) writeTemp(tmp string, data []byte) error {
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	n, err := f.Write(data)
	if err == nil && n < len(data) {
		err = io.ErrShortWrite
	}
	if err != nil {
		_ = f.Close()
		return fmt.Errorf("write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return nil
}

// load validates and restores shard's checkpoint. A missing file is a
// silent "not checkpointed"; anything present-but-invalid (truncated,
// digest mismatch, wrong version/campaign/shard) is logged, removed
// best-effort, and reported as not restorable — the shard re-runs. msh,
// when non-nil, receives the checkpointed observability state.
func (s *checkpointStore) load(shard int, accCfg analysis.Config, msh *obs.Shard) (*shardRun, bool) {
	path := s.path(shard)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.logf("core: checkpoint shard %d: read: %v; rerunning shard\n", shard, err)
		}
		return nil, false
	}
	ck, err := validateShardEnvelope(s.key, shard, data)
	if err != nil {
		s.logf("core: checkpoint shard %d: %v; rerunning shard\n", shard, err)
		_ = s.fs.Remove(path)
		return nil, false
	}
	run := restoreShardRun(accCfg, ck, msh)
	s.logf("core: shard %d restored from checkpoint\n", shard)
	return run, true
}

// validateShardEnvelope checks one envelope's integrity in layers —
// well-formed header, format version, campaign key, shard index, payload
// digest, decodable payload, accumulator present — and returns the decoded
// payload, whose R2 log is data's packet section in place. It guards both transports of
// the envelope format: checkpoint files read back from disk and RESULT
// envelopes received from fabric workers.
func validateShardEnvelope(key string, shard int, data []byte) (*shardCheckpoint, error) {
	if len(data) < envHeaderLen || string(data[:len(envMagic)]) != envMagic {
		return nil, errors.New("invalid checkpoint (torn or truncated write, or not a binary envelope)")
	}
	if v := binary.BigEndian.Uint32(data[len(envMagic):]); v != checkpointVersion {
		return nil, fmt.Errorf("checkpoint version %d, want %d", v, checkpointVersion)
	}
	if hex.EncodeToString(data[envKeyOff:envShardOff]) != key {
		return nil, errors.New("checkpoint belongs to a different campaign configuration or shard plan")
	}
	if got := binary.BigEndian.Uint32(data[envShardOff:]); int64(got) != int64(shard) {
		return nil, fmt.Errorf("checkpoint names shard %d", got)
	}
	payload := data[envHeaderLen:]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], data[envSumOff:envHeaderLen]) {
		return nil, errors.New("checkpoint payload digest mismatch (torn write)")
	}
	ck, err := decodeShardPayload(payload)
	if err != nil {
		return nil, fmt.Errorf("checkpoint payload: %v", err)
	}
	if ck.Acc == nil {
		return nil, errors.New("checkpoint payload missing accumulator state")
	}
	return ck, nil
}

// decodeShardPayload splits a digest-checked payload into its structured
// state, its R2 stream and its verdicts, and requires nothing after them.
func decodeShardPayload(payload []byte) (*shardCheckpoint, error) {
	n, k := binary.Uvarint(payload)
	if k <= 0 || n > uint64(len(payload)-k) {
		return nil, errors.New("bad state length")
	}
	var ck shardCheckpoint
	if err := json.Unmarshal(payload[k:k+int(n)], &ck); err != nil {
		return nil, err
	}
	rest := payload[k+int(n):]
	var err error
	if ck.R2, rest, err = capture.ReadLog(rest); err != nil {
		return nil, fmt.Errorf("R2 packets: %v", err)
	}
	if ck.Verdicts, rest, err = decodeVerdicts(rest); err != nil {
		return nil, fmt.Errorf("verdicts: %v", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(rest))
	}
	return &ck, nil
}

// clear removes the campaign's checkpoint files after a successful merge
// (unless the plan keeps them). Best-effort: a file that cannot be removed
// is left behind and would be revalidated — and found stale or re-merged
// identically — by any later resume.
func (s *checkpointStore) clear(n int) {
	if s.keep {
		return
	}
	for i := 0; i < n; i++ {
		err := s.fs.Remove(s.path(i))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			s.logf("core: checkpoint shard %d: remove: %v\n", i, err)
		}
	}
	// Remove the directory when empty; harmless to fail (e.g. shared dir).
	_ = os.Remove(s.dir)
}

// ctx returns the campaign's cancellation context.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}
