// Package store gives a trained index a production life outside the
// process that built it. It has three layers:
//
//   - A durable, incrementally writable bundle format (this file): a
//     manifest holding the model snapshot and its candidate objects
//     exactly once, plus a base section (the compacted base segment —
//     objects, the flat vector block, the stable-ID table; reopening
//     costs zero exact distances) and an append-only, CRC-framed delta
//     log per shard. Saving rewrites only what changed: nothing for a
//     clean shard, one appended delta frame for a dirty shard, a base
//     rewrite only after a compaction. Section writes are atomic (temp
//     file + rename), every file is integrity-checked (magic, version,
//     length, CRC-32C), and delta-log recovery reopens at the last
//     durable base+delta prefix. This version-3 layout is the only
//     format Open reads; the v1 and v2 formats of earlier builds fail
//     with ErrVersion.
//
//   - Store (sharded.go), S ≥ 1 hash shards behind one front, each a
//     concurrency shell around retrieval.Segmented (store.go): reads
//     are lock-free against immutable copy-on-write snapshots while
//     mutations serialize behind a per-shard mutex, and every object
//     carries a stable uint64 ID that survives removals and upserts.
//
//   - A background lifecycle (snapshot.go): Start/Close give the store
//     its own incremental snapshot loop and a compactor scheduled on
//     the measured delta-scan share of real query traffic.
//
// Domain objects cross the serialization boundary through a caller-supplied
// Codec, keeping the package generic over T exactly like the rest of the
// repository.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"qse/internal/core"
	"qse/internal/fsio"
	"qse/internal/meta"
)

// Codec translates domain objects to and from bytes for bundle storage.
// Encode and Decode must be inverses down to the bit level for any state
// the distance function reads: a reopened bundle reproduces the original
// index's answers exactly only if decoded objects are distance-identical
// to the originals.
type Codec[T any] interface {
	Encode(x T) ([]byte, error)
	Decode(data []byte) (T, error)
}

// Gob returns a Codec backed by encoding/gob. It round-trips float64s
// bit-exactly, which makes it the right default for every object type in
// this repository (series, shapes, vectors).
func Gob[T any]() Codec[T] { return gobCodec[T]{} }

type gobCodec[T any] struct{}

func (gobCodec[T]) Encode(x T) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&x); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (gobCodec[T]) Decode(data []byte) (T, error) {
	var x T
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&x)
	return x, err
}

// Bundle file layout (all integers little-endian):
//
//	[0:6]    magic "QSEBDL"
//	[6:8]    format version
//	[8:16]   gob body length n
//	[16:16+n] gob-encoded body
//	[16+n:20+n] CRC-32C over bytes [0, 16+n)
//
// Two envelope versions share it. Version 3 is the manifest
// (manifestV3Body): it carries the trained model and its candidate
// objects exactly once and names one base-section file (version 4
// envelope, baseSectionBody) plus one delta-log file (its own framed
// format, see the delta log section below) per shard. Versions 1 and 2
// were the single-file bundle and the manifest of per-shard bundles that
// earlier builds wrote; this build refuses them with ErrVersion.
const (
	bundleMagic        = "QSEBDL"
	manifestV3Version  = 3
	baseSectionVersion = 4
	headerLen          = 16
	crcLen             = 4
)

// Sentinel errors let callers distinguish "not ours" from "ours but
// damaged" from "ours but from a future layout".
var (
	// ErrNotBundle means the file does not start with the bundle magic.
	ErrNotBundle = errors.New("store: not a bundle file")
	// ErrCorrupt means the file is recognizably a bundle but fails the
	// length, checksum, or cross-field consistency checks.
	ErrCorrupt = errors.New("store: bundle corrupted")
	// ErrVersion means the bundle was written by an incompatible format
	// version.
	ErrVersion = errors.New("store: unsupported bundle version")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// writeEnvelope atomically writes a sealed envelope (magic, version,
// length, gob body, CRC) to path: the bytes land in a temporary file in
// the same directory, are synced, and are renamed over path, so a crash
// mid-write can never leave a half-written file where readers look.
func writeEnvelope(fsys fsio.FS, path string, version uint16, body any) (int64, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(body); err != nil {
		return 0, fmt.Errorf("store: encoding bundle: %w", err)
	}
	buf := make([]byte, 0, headerLen+payload.Len()+crcLen)
	buf = append(buf, bundleMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(payload.Len()))
	buf = append(buf, payload.Bytes()...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
	if err := writeRaw(fsys, path, buf); err != nil {
		return 0, err
	}
	return int64(len(buf)), nil
}

// readEnvelope reads and verifies an envelope file: magic, declared
// length, and CRC must all check out before any decoder sees a byte. It
// returns the format version and the sealed gob payload.
func readEnvelope(fsys fsio.FS, path string) (uint16, []byte, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, nil, fmt.Errorf("store: reading bundle: %w", err)
	}
	if len(data) < len(bundleMagic) || string(data[:len(bundleMagic)]) != bundleMagic {
		return 0, nil, fmt.Errorf("%w: %s", ErrNotBundle, path)
	}
	if len(data) < headerLen+crcLen {
		return 0, nil, fmt.Errorf("%w: %s: truncated header (%d bytes)", ErrCorrupt, path, len(data))
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	if n != uint64(len(data)-headerLen-crcLen) {
		return 0, nil, fmt.Errorf("%w: %s: body length %d, file holds %d", ErrCorrupt, path, n, len(data)-headerLen-crcLen)
	}
	// CRC before the version field is interpreted: the checksum covers the
	// whole header, so a bit-flipped version byte reports as corruption,
	// and only an intact file from a genuinely different format version
	// reports as version skew.
	sum := binary.LittleEndian.Uint32(data[len(data)-crcLen:])
	if got := crc32.Checksum(data[:len(data)-crcLen], crcTable); got != sum {
		return 0, nil, fmt.Errorf("%w: %s: checksum %08x, want %08x", ErrCorrupt, path, got, sum)
	}
	return binary.LittleEndian.Uint16(data[6:8]), data[headerLen : len(data)-crcLen], nil
}

// shardHashName names the ID→shard routing function a layout was written
// under. The manifest records it and Open refuses anything else, so a
// future change of hash surfaces as explicit version skew instead of
// silently routing objects to the wrong shards.
const shardHashName = "splitmix64"

// ---------------------------------------------------------------------------
// Bundle format v3: incremental base/delta layout.
//
// A v3 layout is a manifest at the bundle path plus two section files per
// shard next to it:
//
//	<path>                          v3 manifest (model + candidates, once)
//	<path>.shard-III-of-SSS.base    base section: the shard's compacted
//	                                base segment (version-4 envelope)
//	<path>.shard-III-of-SSS.delta   delta log: framed append-only records
//	                                of delta rows + tombstone bitmaps
//
// Save rewrites a shard's base section only when the in-memory base
// changed (a compaction ran); otherwise it appends one frame holding the
// rows added since the last frame plus the current tombstone bitmaps —
// O(dirty deltas), not O(n·S). The delta log names the base it extends by
// tag; a log whose tag does not match the base next to it (a crash
// between the two writes) is ignored, which is always safe: a new base is
// the fold of a state at least as new as anything the old log described.
// A torn or bit-rotted frame truncates the log at the last intact frame —
// the store reopens at the last durable base+delta prefix.
// ---------------------------------------------------------------------------

// manifestV3Body is the gob payload of a version-3 manifest. The trained
// model and its candidate objects live here exactly once: shards
// reference them implicitly and share one restored instance in memory.
// Dims is the embedding width every section must agree with.
// NextID is the allocator at manifest-write time; it may be stale (the
// manifest is not rewritten by delta-only saves), so open resumes the
// allocator at the maximum over the manifest, every base section, and
// every delta frame.
type manifestV3Body struct {
	Shards     int
	Hash       string
	NextID     uint64
	Dims       int
	Model      core.Snapshot
	Candidates [][]byte
	BaseFiles  []string
	DeltaFiles []string
	// MetaKinds is the metadata field-type registry at manifest-write
	// time. Like NextID it may lag the sections (the manifest is only
	// rewritten when the registry grew, see Store.snapshotTo), so open seeds
	// from it first and then re-registers the kinds found in the replayed
	// rows. Absent in pre-metadata manifests; gob decodes it as nil.
	MetaKinds map[string]meta.Kind
}

// writeManifestV3 atomically writes a version-3 manifest, returning the
// bytes written.
func writeManifestV3(fsys fsio.FS, path string, body *manifestV3Body) (int64, error) {
	return writeEnvelope(fsys, path, manifestV3Version, body)
}

// decodeManifestV3 decodes and verifies a version-3 manifest from an
// already envelope-verified payload: hash scheme and the structural
// consistency every section-opening loop indexes on. (The caller
// checked the envelope version, so the file is read and CRC-checked
// exactly once.)
func decodeManifestV3(path string, payload []byte) (*manifestV3Body, error) {
	var body manifestV3Body
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&body); err != nil {
		return nil, fmt.Errorf("%w: %s: decoding manifest: %v", ErrCorrupt, path, err)
	}
	if body.Shards < 1 || body.Shards > maxShards {
		return nil, fmt.Errorf("%w: %s: manifest declares %d shards, want 1..%d", ErrCorrupt, path, body.Shards, maxShards)
	}
	if len(body.BaseFiles) != body.Shards || len(body.DeltaFiles) != body.Shards {
		return nil, fmt.Errorf("%w: %s: manifest lists %d base and %d delta files for %d shards",
			ErrCorrupt, path, len(body.BaseFiles), len(body.DeltaFiles), body.Shards)
	}
	if body.Hash != shardHashName {
		return nil, fmt.Errorf("%w: %s routes shards with %q, this build uses %q", ErrVersion, path, body.Hash, shardHashName)
	}
	if body.Dims <= 0 {
		return nil, fmt.Errorf("%w: %s: dims %d", ErrCorrupt, path, body.Dims)
	}
	for i := range body.BaseFiles {
		for _, f := range []string{body.BaseFiles[i], body.DeltaFiles[i]} {
			if f == "" || f != filepath.Base(f) {
				return nil, fmt.Errorf("%w: %s: shard %d section has non-local name %q", ErrCorrupt, path, i, f)
			}
		}
	}
	return &body, nil
}

// baseSectionBody is the gob payload of a shard's base section: the
// compacted base segment exactly as it sits in memory (objects, flat
// vector block, and distinct stable IDs in row order — not sorted, since
// compaction keeps position order and an upserted row sits where its
// replacement was appended). Tag is the base's identity;
// the delta log next to it must carry the same tag to apply. NextID is
// the shard's allocator view at write time (an extra crash-consistency
// anchor beyond the manifest and the frames).
type baseSectionBody struct {
	Tag     uint64
	Dims    int
	NextID  uint64
	Objects [][]byte
	Flat    []float64
	IDs     []uint64
	// Meta holds the base rows' metadata records aligned with Objects
	// (nil when none carries metadata). Absent in pre-metadata sections.
	Meta []meta.Map
	// QuantBits, QuantBounds and Shadow persist the base's scalar-
	// quantized shadow block (see internal/vafile): the bit width per
	// dimension (8; older writers also used 1 to 7, which reopen
	// rebuilt at 8), the flat boundary grid, and one code byte per base
	// value — so reopening never re-sorts the base to rebuild
	// boundaries. Zero/absent (every pre-quantization section) means
	// quantization off; a QuantBits with an empty grid is legal (a
	// dormant shadow below the gate is written that way) and makes the
	// open rebuild the shadow from the flat block.
	QuantBits   int
	QuantBounds []float64
	Shadow      []uint8
}

// writeBaseSection atomically writes a shard base section, returning
// the bytes written.
func writeBaseSection(fsys fsio.FS, path string, body *baseSectionBody) (int64, error) {
	return writeEnvelope(fsys, path, baseSectionVersion, body)
}

// readBaseSection reads and verifies a shard base section.
func readBaseSection(fsys fsio.FS, path string) (*baseSectionBody, error) {
	version, payload, err := readEnvelope(fsys, path)
	if err != nil {
		return nil, err
	}
	if version != baseSectionVersion {
		return nil, fmt.Errorf("%w: %s has version %d, want base section version %d", ErrVersion, path, version, baseSectionVersion)
	}
	var body baseSectionBody
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&body); err != nil {
		return nil, fmt.Errorf("%w: %s: decoding base section: %v", ErrCorrupt, path, err)
	}
	if body.Dims <= 0 {
		return nil, fmt.Errorf("%w: %s: dims %d", ErrCorrupt, path, body.Dims)
	}
	if len(body.IDs) != len(body.Objects) {
		return nil, fmt.Errorf("%w: %s: %d ids for %d objects", ErrCorrupt, path, len(body.IDs), len(body.Objects))
	}
	if len(body.Flat) != len(body.Objects)*body.Dims {
		return nil, fmt.Errorf("%w: %s: flat block has %d values for %d objects x %d dims",
			ErrCorrupt, path, len(body.Flat), len(body.Objects), body.Dims)
	}
	seen := make(map[uint64]bool, len(body.IDs))
	for i, id := range body.IDs {
		if seen[id] {
			return nil, fmt.Errorf("%w: %s: base id %d repeats at row %d", ErrCorrupt, path, id, i)
		}
		seen[id] = true
	}
	return &body, nil
}

// Delta log layout. The file is a 20-byte header followed by zero or more
// frames:
//
//	[0:6]    magic "QSEDLT"
//	[6:8]    delta log version (little-endian)
//	[8:16]   base tag this log extends
//	[16:20]  CRC-32C over bytes [0, 16)
//
//	frame:   [0:8]  gob payload length n
//	         [8:8+n] gob-encoded deltaFrame
//	         [8+n:12+n] CRC-32C over bytes [0, 8+n)
//
// Frames are appended (and fsynced) by incremental saves; each frame
// holds the delta rows added since the previous frame plus the full
// tombstone bitmaps at frame time (bitmaps are O(rows/64) words — cheap —
// and replacing them wholesale keeps recovery trivial: the store's state
// is the base plus the row-prefix and bitmaps of the last intact frame).
const (
	deltaMagic      = "QSEDLT"
	deltaLogVersion = 1
	deltaHeaderLen  = 20
	frameHeaderLen  = 8
)

// deltaFrame is one incremental save record.
type deltaFrame struct {
	// Objects/Flat/IDs are the delta rows appended since the previous
	// frame (all rows, for the first frame after a base rewrite).
	Objects [][]byte
	Flat    []float64
	IDs     []uint64
	// BaseDead/DeltaDead are the full tombstone bitmaps at frame time.
	BaseDead  []uint64
	DeltaDead []uint64
	// Gen is the shard generation this frame captures (diagnostic; open
	// restarts generations at zero like every open always has). NextID is
	// the shard's allocator view, folded into the resume maximum.
	Gen    uint64
	NextID uint64
	// Meta holds the frame's rows' metadata records aligned with Objects
	// (nil when none carries metadata). Absent in pre-metadata frames.
	Meta []meta.Map
}

// deltaLogHeader builds the sealed 20-byte log header for a base tag.
func deltaLogHeader(tag uint64) []byte {
	buf := make([]byte, 0, deltaHeaderLen)
	buf = append(buf, deltaMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, deltaLogVersion)
	buf = binary.LittleEndian.AppendUint64(buf, tag)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// encodeFrame seals one frame: length, gob payload, CRC.
func encodeFrame(f *deltaFrame) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(f); err != nil {
		return nil, fmt.Errorf("store: encoding delta frame: %w", err)
	}
	buf := make([]byte, 0, frameHeaderLen+payload.Len()+crcLen)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(payload.Len()))
	buf = append(buf, payload.Bytes()...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable)), nil
}

// readDeltaLog reads a shard delta log, recovering at the last durable
// frame boundary. It returns the intact frames, the byte offset just past
// the last intact frame (where the next incremental save may append), and
// whether the log is usable at all — a missing file, a damaged header, or
// a tag that does not name wantTag yields (nil, 0, false, nil): the
// caller falls back to the base section alone, which is always a
// consistent (possibly older) state. Only absence is treated that way;
// any other read failure (permissions, I/O error) is returned, because
// silently opening older state over an intact-but-unreadable log — and
// later rewriting it — would destroy durable data no crash ever
// touched. A torn or bit-flipped frame ends the replay at the previous
// frame — crash-consistency by construction, since appends land after
// every intact frame. Only a frame that passes its CRC yet fails to
// decode is reported as corruption: that is a format violation, not an
// interrupted write.
func readDeltaLog(fsys fsio.FS, path string, wantTag uint64) ([]*deltaFrame, int64, bool, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, 0, false, nil
		}
		return nil, 0, false, fmt.Errorf("store: reading delta log: %w", err)
	}
	if len(data) < deltaHeaderLen || string(data[:len(deltaMagic)]) != deltaMagic {
		return nil, 0, false, nil
	}
	hdr := data[:deltaHeaderLen]
	if crc32.Checksum(hdr[:deltaHeaderLen-crcLen], crcTable) != binary.LittleEndian.Uint32(hdr[deltaHeaderLen-crcLen:]) {
		return nil, 0, false, nil
	}
	if binary.LittleEndian.Uint16(hdr[6:8]) != deltaLogVersion {
		return nil, 0, false, nil
	}
	if binary.LittleEndian.Uint64(hdr[8:16]) != wantTag {
		return nil, 0, false, nil
	}

	var frames []*deltaFrame
	off := int64(deltaHeaderLen)
	for {
		rest := data[off:]
		if len(rest) < frameHeaderLen+crcLen {
			break // torn tail (or clean EOF): recover at off
		}
		n := binary.LittleEndian.Uint64(rest[:frameHeaderLen])
		end := frameHeaderLen + int64(n) + crcLen
		if n > uint64(len(rest)) || end > int64(len(rest)) {
			break // frame runs past EOF: torn tail
		}
		sum := binary.LittleEndian.Uint32(rest[end-crcLen : end])
		if crc32.Checksum(rest[:end-crcLen], crcTable) != sum {
			break // bit rot or torn write: recover at off
		}
		var f deltaFrame
		if err := gob.NewDecoder(bytes.NewReader(rest[frameHeaderLen : end-crcLen])).Decode(&f); err != nil {
			return nil, 0, false, fmt.Errorf("%w: %s: frame at offset %d passes CRC but fails to decode: %v", ErrCorrupt, path, off, err)
		}
		frames = append(frames, &f)
		off += end
	}
	return frames, off, true, nil
}

// writeDeltaLog atomically writes a fresh delta log (header + the given
// frames) to path, replacing whatever was there. Used when the base was
// rewritten (the old log describes the old base) and as the fallback when
// an append cannot trust the file on disk. Returns the end offset.
func writeDeltaLog(fsys fsio.FS, path string, tag uint64, frames ...*deltaFrame) (int64, error) {
	buf := deltaLogHeader(tag)
	for _, f := range frames {
		fb, err := encodeFrame(f)
		if err != nil {
			return 0, err
		}
		buf = append(buf, fb...)
	}
	if err := writeRaw(fsys, path, buf); err != nil {
		return 0, err
	}
	return int64(len(buf)), nil
}

// appendDeltaFrame appends one sealed frame at offset off (the end of the
// last durable frame) and fsyncs. If the file on disk is shorter than off
// — deleted or truncated behind the store's back — it reports
// ErrUnexpectedEOF so the caller can fall back to a full section rewrite;
// if longer (a previous append failed partway), the stale tail is
// overwritten and then truncated away. Returns the new end offset.
func appendDeltaFrame(fsys fsio.FS, path string, off int64, f *deltaFrame) (int64, error) {
	fb, err := encodeFrame(f)
	if err != nil {
		return 0, err
	}
	file, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, err
	}
	closed := false
	defer func() {
		if !closed {
			file.Close()
		}
	}()
	fi, err := file.Stat()
	if err != nil {
		return 0, err
	}
	if fi.Size() < off {
		return 0, fmt.Errorf("store: delta log %s is %d bytes, expected at least %d: %w", path, fi.Size(), off, io.ErrUnexpectedEOF)
	}
	if _, err := file.WriteAt(fb, off); err != nil {
		return 0, fmt.Errorf("store: appending delta frame: %w", err)
	}
	end := off + int64(len(fb))
	if err := file.Truncate(end); err != nil {
		return 0, fmt.Errorf("store: truncating delta log: %w", err)
	}
	if err := file.Sync(); err != nil {
		return 0, fmt.Errorf("store: syncing delta log: %w", err)
	}
	closed = true
	if err := file.Close(); err != nil {
		return 0, fmt.Errorf("store: closing delta log: %w", err)
	}
	return end, nil
}

// writeRaw atomically publishes raw bytes at path (temp file in the same
// directory, sync, rename) — the same discipline as writeEnvelope, for
// content that is not a sealed gob envelope.
func writeRaw(fsys fsio.FS, path string, data []byte) (err error) {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, ".bundle-*")
	if err != nil {
		return fmt.Errorf("store: creating temp file: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			fsys.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return fmt.Errorf("store: writing %s: %w", filepath.Base(path), err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("store: syncing %s: %w", filepath.Base(path), err)
	}
	if err = tmp.Chmod(0o644); err != nil {
		return fmt.Errorf("store: chmod %s: %w", filepath.Base(path), err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("store: closing %s: %w", filepath.Base(path), err)
	}
	if err = fsys.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: publishing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// shardSectionFiles names the per-shard base and delta section files of a
// v3 layout at path, relative to its directory. The shard count is part
// of the name, so layouts saved with different counts never collide.
func shardSectionFiles(path string, shards int) (bases, deltas []string) {
	base := filepath.Base(path)
	bases = make([]string, shards)
	deltas = make([]string, shards)
	for i := range bases {
		bases[i] = fmt.Sprintf("%s.shard-%03d-of-%03d.base", base, i, shards)
		deltas[i] = fmt.Sprintf("%s.shard-%03d-of-%03d.delta", base, i, shards)
	}
	return bases, deltas
}
