package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	parsvd "goparsvd"
	"goparsvd/internal/mat"
	"goparsvd/internal/wal"
)

// FsyncPolicy says when a model's write-ahead log reaches stable storage,
// and therefore what a 200 push ack means:
//
//   - FsyncAlways: the record is fsynced before the ack. An acked push
//     survives kill -9 and machine power loss (short of a lying disk).
//   - FsyncInterval: records are flushed in the background every
//     Config.FsyncInterval. An acked push survives a process crash (the
//     OS page cache holds it) but up to one interval of acked pushes can
//     be lost to a whole-machine failure.
//   - FsyncNever: flushing is left to the OS entirely. An acked push
//     survives a process crash; a machine failure loses whatever the
//     kernel had not written back yet.
//
// Without a WAL at all (Config.DisableWAL, or no CheckpointDir), an ack
// only means "applied in memory": every push since the last periodic
// checkpoint is lost on any crash. /healthz reports that exposure as the
// per-model dirty age.
type FsyncPolicy string

const (
	FsyncAlways   FsyncPolicy = "always"
	FsyncInterval FsyncPolicy = "interval"
	FsyncNever    FsyncPolicy = "never"
)

// syncPolicy maps the config spelling onto the wal package's policy. The
// empty string is the FsyncAlways default.
func (p FsyncPolicy) syncPolicy() (wal.SyncPolicy, error) {
	if p == "" {
		p = FsyncAlways
	}
	return wal.ParseSyncPolicy(string(p))
}

// Per-model on-disk layout under Config.CheckpointDir:
//
//	<name>.ckpt       periodic checkpoint (atomic write-then-rename)
//	<name>.spec.json  the creation spec, written durably at create time
//	<name>.wal/       segmented write-ahead log of applied micro-batches
//
// The spec file is what makes model creation itself durable: a model that
// crashes before its first checkpoint is rebuilt from the spec and
// re-fed from the WAL — including a distributed model, whose replay
// re-spawns and re-feeds its worker fleet.
func specFilePath(dir, name string) string { return filepath.Join(dir, name+".spec.json") }
func walDirPath(dir, name string) string   { return filepath.Join(dir, name+".wal") }

// openModelWAL opens (creating if absent) the model's write-ahead log
// with the server's durability policy.
func openModelWAL(cfg Config, name string) (*wal.Log, error) {
	sync, err := cfg.Fsync.syncPolicy()
	if err != nil {
		return nil, err
	}
	return wal.Open(walDirPath(cfg.CheckpointDir, name), wal.Options{
		Sync:     sync,
		Interval: cfg.FsyncInterval,
		Logf:     cfg.Logf,
	})
}

// record is one ingest operation, from the queue through the WAL to
// boot replay. Exactly one kind is set: a snapshot batch, applied through
// SVD.Push; a sketched push's compressed (q, s) factor pair, applied
// through SVD.PushSketch; or, when neither is, a checkpoint to absorb
// through SVD.Merge. The live ingest loop and replay both apply a record
// through apply, so they cannot drift apart.
type record struct {
	batch *parsvd.Matrix
	q, s  *parsvd.Matrix
	merge []byte
}

// A WAL record payload's first 8 bytes are its kind. A batch payload is a
// snapshot block (body.go), whose leading little-endian tag is always
// zero; merge and sketch payloads start with 8 non-zero ASCII bytes, so
// the prefixes cannot collide. A merge payload is the magic followed by
// the absorbed checkpoint, verbatim; a sketch payload is the magic
// followed by the factor pair in the layout of internal/mat/codec.go —
// the pair exactly as it arrived, never the reconstructed q·s, so the
// log stays as small as the wire traffic and replay reproduces the same
// deterministic reconstruction.
const (
	mergeMagic  = "GPSVMERG"
	sketchMagic = "GPSVSKCH"
)

// encode frames the record as a WAL payload. A batch is logged exactly
// as the engine consumed it, so replay reproduces the same micro-batch
// boundaries — and with them the same forget-factor weighting — bit for
// bit.
func (r record) encode() []byte {
	switch {
	case r.batch != nil:
		return AppendMatrix(nil, r.batch)
	case r.q != nil:
		buf := append(make([]byte, 0, len(sketchMagic)+mat.FactorPairLen(r.q, r.s)), sketchMagic...)
		return mat.AppendFactorPair(buf, r.q, r.s)
	}
	return append(append(make([]byte, 0, len(mergeMagic)+len(r.merge)), mergeMagic...), r.merge...)
}

// decodeRecord is the inverse of encode: it reads the payload's kind
// from its first 8 bytes once. A merge record's checkpoint aliases
// payload; Merge validates it when the record is applied.
func decodeRecord(payload []byte) (record, error) {
	var kind string
	if len(payload) >= len(mergeMagic) {
		kind = string(payload[:len(mergeMagic)])
	}
	switch kind {
	case mergeMagic:
		return record{merge: payload[len(mergeMagic):]}, nil
	case sketchMagic:
		q, s, err := mat.DecodeFactorPair(payload[len(sketchMagic):])
		if err != nil {
			return record{}, fmt.Errorf("server: wal sketch record: %w", err)
		}
		return record{q: q, s: s}, nil
	}
	batch, err := mat.DecodeBlock(payload)
	if err != nil {
		return record{}, fmt.Errorf("server: wal record: %w", err)
	}
	return record{batch: batch}, nil
}

// apply runs the record's engine operation on svd. Merge validates the
// checkpoint fully before it touches the engine, so a corrupt upload is a
// clean refusal; a sketched pair reconstructs deterministically, so its
// replay is bit-exact.
func (r record) apply(svd *parsvd.SVD) error {
	switch {
	case r.batch != nil:
		return svd.Push(r.batch)
	case r.q != nil:
		return svd.PushSketch(r.q, r.s)
	}
	return svd.Merge(bytes.NewReader(r.merge))
}

// writeSpecFile persists the creation spec durably, so the model exists
// after a crash even before its first checkpoint.
func writeSpecFile(dir string, spec ModelSpec) error {
	buf, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return fmt.Errorf("server: encoding model spec: %w", err)
	}
	err = writeFileDurably(specFilePath(dir, spec.Name), func(w io.Writer) error {
		_, err := w.Write(append(buf, '\n'))
		return err
	})
	if err != nil {
		return fmt.Errorf("server: writing model spec: %w", err)
	}
	return nil
}

// writeFileDurably replaces path with what write produces: it writes a
// temporary file beside path, fsyncs it, renames it over path and fsyncs
// the directory, so a crash leaves the old file or the new one, never a
// torn one. The temporary file is removed on every failure.
func writeFileDurably(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// readSpecFile loads a persisted creation spec and validates it belongs
// to the named model.
func readSpecFile(dir, name string) (ModelSpec, error) {
	buf, err := os.ReadFile(specFilePath(dir, name))
	if err != nil {
		return ModelSpec{}, err
	}
	var spec ModelSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		return ModelSpec{}, fmt.Errorf("server: parsing model spec: %w", err)
	}
	if spec.Name != name {
		return ModelSpec{}, fmt.Errorf("server: spec file for %q names model %q", name, spec.Name)
	}
	return spec, nil
}

// quarantine renames a damaged file or directory out of the model
// namespace (the ".bad" convention checkpoints already use) so the next
// boot does not trip over it again. Best-effort.
func quarantine(logf func(string, ...any), path string) {
	if _, err := os.Stat(path); err != nil {
		return
	}
	if err := os.Rename(path, path+".bad"); err != nil {
		logf("parsvd-serve: quarantining %s: %v", path, err)
		return
	}
	logf("parsvd-serve: quarantined %s as %s.bad", path, path)
}

// syncDir fsyncs a directory so renames inside it survive a crash.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
