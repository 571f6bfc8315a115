// Package store is the durable stream history of the serving runtime: a
// segmented, append-only on-disk store for sensor tuple streams, plus the
// machinery that connects it to the live system — a Recorder that taps
// serve sessions without ever blocking the hot path, a Replayer that feeds
// recorded history back through a serving session at wall-clock, scaled or
// maximum speed, and a Backfill evaluator that runs any compiled
// anduin.Plan over recorded history offline. An Archive is a wire server's
// recording backend (wire.Server.Archive): it records the sessions, makes
// them live-migratable and answers backfill requests.
//
// The paper's pipeline is learn-once/detect-live; this package turns the
// runtime into a lambda-style live+historical system: every detection is
// reproducible after the fact, and a newly learned query can be evaluated
// over yesterday's streams without replaying them through the network.
//
// # On-disk layout
//
// One recorded stream is one directory:
//
//	<root>/<stream>/manifest.json    immutable stream metadata
//	<root>/<stream>/000000000001.seg append-only segment files
//	<root>/<stream>/000000000001.idx sparse index sidecar (sealed segments)
//	<root>/<stream>/000000000002.seg
//	...
//
// The manifest is written once at creation and never mutated, so recovery
// never depends on a mutable metadata file: the segment set is discovered
// by directory scan and validated record by record. Sealed segments carry
// a CRC-framed sparse index sidecar (see index.go) that makes the archive
// seekable by record ordinal, tuple ordinal and event time; sidecars are
// pure accelerators and their absence or corruption only costs a scan.
//
// # Segment format
//
// Every segment starts with a fixed 16-byte header:
//
//	magic u32 ("GSEG") | version u8 | reserved u8 | fields u16 | baseRecord u64
//
// followed by records. A record is a CRC-framed batch of tuples whose
// payload is exactly the canonical internal/wire FrameBatch encoding (the
// batch handle carries the low 32 bits of the record's stream-wide
// ordinal, which lets readers detect spliced or reordered segments):
//
//	length u32 | crc32(payload) u32 | payload (wire batch, length bytes)
//
// Records are self-validating: a reader accepts a record only if the
// length is within bounds, the CRC matches, the batch decodes strictly
// (the wire codec is canonical), the batch width equals the manifest
// schema, and the ordinal continues the sequence. Anything else is either
// a torn tail (clean truncation point for recovery) or corruption (an
// error for readers, who must not silently skip history).
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

// Format limits and defaults.
const (
	// FormatVersion identifies the segment file format.
	FormatVersion = 1
	// MaxRecordBytes bounds one record payload; it equals the wire frame
	// cap so a segment record is always a legal wire frame payload.
	MaxRecordBytes = wire.MaxFrame
	// DefaultSegmentBytes is the segment roll threshold.
	DefaultSegmentBytes = 4 << 20
	// DefaultBatchTuples is the number of tuples buffered per record.
	DefaultBatchTuples = 256
)

// manifestName is the per-stream metadata file.
const manifestName = "manifest.json"

// Manifest is the immutable metadata of one recorded stream.
type Manifest struct {
	Version       int      `json:"version"`
	Stream        string   `json:"stream"`
	Fields        []string `json:"fields"`
	CreatedUnixNs int64    `json:"created_unix_ns"`
}

// Options tunes a stream writer.
type Options struct {
	// SegmentBytes is the size threshold past which the current segment is
	// sealed and a new one started. Defaults to DefaultSegmentBytes.
	SegmentBytes int64
	// BatchTuples is the number of tuples buffered before a record is
	// written. Defaults to DefaultBatchTuples; clamped so a full record
	// never exceeds MaxRecordBytes.
	BatchTuples int
	// Sync fsyncs the segment file on every Flush and segment roll.
	// Durability against OS crashes at the price of flush latency.
	Sync bool
	// IndexEvery is the record stride between sparse-index entries in the
	// sidecar written when a segment seals. Defaults to DefaultIndexEvery;
	// a seek scans at most IndexEvery-1 records past its index entry.
	IndexEvery int
}

func (o Options) withDefaults(fields int) Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.IndexEvery <= 0 {
		o.IndexEvery = DefaultIndexEvery
	}
	if o.BatchTuples <= 0 {
		o.BatchTuples = DefaultBatchTuples
	}
	if o.BatchTuples > wire.MaxBatch {
		o.BatchTuples = wire.MaxBatch
	}
	// A record must stay a legal wire frame however wide the schema is.
	if max := (MaxRecordBytes - batchHeadBytes) / tupleBytes(fields); o.BatchTuples > max {
		o.BatchTuples = max
	}
	return o
}

const batchHeadBytes = 8  // wire batch payload header: handle u32 | count u16 | fields u16
const tupleHeadBytes = 16 // ts i64 | seq u64

// tupleBytes is the encoded size of one tuple of the given width.
func tupleBytes(fields int) int { return tupleHeadBytes + 8*fields }

// encodeStreamName maps an arbitrary stream name (e.g. a session ID chosen
// by a remote client) onto a safe directory name: [A-Za-z0-9._-] pass
// through, every other byte is %XX-escaped. Purely local — the manifest
// records the original name.
func encodeStreamName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	s := b.String()
	// Never produce a dot-only path element (".", "..").
	if strings.Trim(s, ".") == "" {
		return strings.ReplaceAll(s, ".", "%2E")
	}
	return s
}

// StreamDir returns the directory a stream is stored under.
func StreamDir(root, name string) string {
	return filepath.Join(root, encodeStreamName(name))
}

// Exists reports whether a recorded stream of that name is present.
func Exists(root, name string) bool {
	_, err := os.Stat(filepath.Join(StreamDir(root, name), manifestName))
	return err == nil
}

// ListStreams lists the recorded streams under root (original names from
// the manifests), sorted.
func ListStreams(root string) ([]string, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		man, err := readManifest(filepath.Join(root, e.Name()))
		if err != nil {
			continue // not a stream directory
		}
		out = append(out, man.Stream)
	}
	sort.Strings(out)
	return out, nil
}

func readManifest(dir string) (Manifest, error) {
	var man Manifest
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return man, err
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return man, fmt.Errorf("store: %s: %w", manifestName, err)
	}
	if man.Version != FormatVersion {
		return man, fmt.Errorf("store: manifest format version %d, this build reads %d", man.Version, FormatVersion)
	}
	if len(man.Fields) == 0 || len(man.Fields) > wire.MaxTupleFields {
		return man, fmt.Errorf("store: manifest declares %d fields (want 1..%d)", len(man.Fields), wire.MaxTupleFields)
	}
	return man, nil
}

// writeManifest writes the manifest atomically (write + rename), so a
// crash can never leave a half-written metadata file behind.
func writeManifest(dir string, man Manifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, manifestName))
}

// RecoveryInfo reports what Open had to repair on a crashed stream.
type RecoveryInfo struct {
	// TruncatedBytes is the size of the torn tail cut off the last segment.
	TruncatedBytes int64
	// RemovedSegments counts tail segments discarded entirely (torn before
	// their header was complete).
	RemovedSegments int
}

// Repaired reports whether recovery changed anything on disk.
func (ri RecoveryInfo) Repaired() bool {
	return ri.TruncatedBytes > 0 || ri.RemovedSegments > 0
}

// Create initializes a new recorded stream under root and returns a writer
// positioned at record zero. It fails if the stream already exists.
func Create(root, name string, schema *stream.Schema, opts Options) (*Writer, error) {
	if name == "" {
		return nil, fmt.Errorf("store: empty stream name")
	}
	if schema == nil {
		return nil, fmt.Errorf("store: nil schema")
	}
	if schema.Len() > wire.MaxTupleFields {
		return nil, fmt.Errorf("store: schema of %d fields exceeds the %d maximum", schema.Len(), wire.MaxTupleFields)
	}
	dir := StreamDir(root, name)
	if Exists(root, name) {
		return nil, fmt.Errorf("store: stream %q already exists under %s", name, root)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man := Manifest{
		Version:       FormatVersion,
		Stream:        name,
		Fields:        schema.Fields(),
		CreatedUnixNs: time.Now().UnixNano(),
	}
	if err := writeManifest(dir, man); err != nil {
		return nil, err
	}
	w := newWriter(dir, man, opts)
	if err := w.openSegment(1, 0); err != nil {
		return nil, err
	}
	return w, nil
}

// Open resumes appending to an existing recorded stream. A torn tail left
// by a crash is detected via the record CRCs and truncated back to the
// last valid record before new appends land; the repair is reported in
// Writer.Recovered.
func Open(root, name string, opts Options) (*Writer, error) {
	dir := StreamDir(root, name)
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	w := newWriter(dir, man, opts)
	if err := w.recover(); err != nil {
		return nil, err
	}
	return w, nil
}
