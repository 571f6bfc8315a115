package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"gesturecep/internal/anduin"
	"gesturecep/internal/stream"
)

const headerSize = 5 // u32 payload length + u8 frame type

// Frame payload buffers are pooled by size class so a reader can hand a
// just-read payload to another connection's writer without a copy and
// without either side retaining a high-water-mark allocation. A buffer's
// class is the largest class that fits inside its capacity, so any slice
// whose capacity covers a class may be recycled.
var frameClasses = [...]int{4 << 10, 32 << 10, 256 << 10, MaxFrame + headerSize}

var framePools [len(frameClasses)]sync.Pool

// maxRetainedBuf caps the payload/scratch capacity a Reader or Writer keeps
// across frames. Larger buffers are released to the shared pool after use so
// one oversized frame does not pin its allocation for the connection's life.
const maxRetainedBuf = 64 << 10

// GetFrameBuf returns a length-n buffer from the frame pool (n up to
// MaxFrame plus header). Release it with PutFrameBuf when done.
func GetFrameBuf(n int) []byte {
	for i, c := range frameClasses {
		if n <= c {
			if bp, _ := framePools[i].Get().(*[]byte); bp != nil {
				return (*bp)[:n]
			}
			return make([]byte, n, c)
		}
	}
	return make([]byte, n)
}

// PutFrameBuf returns a buffer obtained from GetFrameBuf (or any slice with
// at least the smallest class capacity) to the pool. Passing nil or an
// undersized slice is a no-op. The caller must not touch b afterwards.
func PutFrameBuf(b []byte) {
	c := cap(b)
	for i := len(frameClasses) - 1; i >= 0; i-- {
		if c >= frameClasses[i] {
			b = b[:0]
			framePools[i].Put(&b)
			return
		}
	}
}

// Frame is one decoded frame. Payload references the Reader's internal
// buffer and is only valid until the next call to Next, unless the caller
// takes ownership with Reader.Detach.
type Frame struct {
	Type    FrameType
	Payload []byte
}

// Reader decodes frames from a byte stream, reusing one pooled payload
// buffer across frames. It is not safe for concurrent use.
type Reader struct {
	r   *bufio.Reader
	hdr [headerSize]byte
	buf []byte
}

// NewReader wraps r for frame decoding.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 32<<10)}
}

// Next reads one frame. The returned payload is valid until the next call.
// A frame whose declared length exceeds MaxFrame or whose type is unknown
// is rejected before its payload is read.
func (d *Reader) Next() (Frame, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(d.hdr[:4])
	t := FrameType(d.hdr[4])
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("wire: frame of %d bytes exceeds the %d maximum", n, MaxFrame)
	}
	if t == FrameInvalid || t >= frameTypeEnd {
		return Frame{}, fmt.Errorf("wire: unknown frame type %d", uint8(t))
	}
	if cap(d.buf) < int(n) || cap(d.buf) > maxRetainedBuf {
		// Either the retained buffer is too small, or it is an oversized
		// one we do not want to pin past this frame: swap it through the
		// pool for a right-classed buffer.
		PutFrameBuf(d.buf)
		d.buf = GetFrameBuf(int(n))
	}
	payload := d.buf[:n]
	if _, err := io.ReadFull(d.r, payload); err != nil {
		return Frame{}, fmt.Errorf("wire: short %s frame: %w", t, err)
	}
	return Frame{Type: t, Payload: payload}, nil
}

// Detach transfers ownership of the last returned frame's payload buffer to
// the caller: the payload stays valid past the next call to Next, and the
// caller must release it with PutFrameBuf once done (the cluster gateway
// does so after the backend flusher has written it out). Calling Detach with
// no frame outstanding is a no-op.
func (d *Reader) Detach() {
	d.buf = nil
}

// Writer encodes frames onto a byte stream, reusing one pooled scratch
// buffer. It is not safe for concurrent use; callers serialize with their
// own lock.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter wraps w for frame encoding.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteFrame emits one frame. Header and payload go out in a single Write
// so a frame is never interleaved with another writer's bytes as long as
// callers hold the connection write lock.
func (e *Writer) WriteFrame(t FrameType, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds the %d maximum", len(payload), MaxFrame)
	}
	need := headerSize + len(payload)
	if cap(e.buf) < need {
		PutFrameBuf(e.buf)
		e.buf = GetFrameBuf(need)
	}
	b := e.buf[:need]
	binary.BigEndian.PutUint32(b[:4], uint32(len(payload)))
	b[4] = byte(t)
	copy(b[headerSize:], payload)
	_, err := e.w.Write(b)
	if cap(e.buf) > maxRetainedBuf {
		// Do not pin an oversized scratch buffer on the connection.
		PutFrameBuf(e.buf)
		e.buf = nil
	}
	return err
}

// WriteJSON emits one control frame with a JSON payload.
func (e *Writer) WriteJSON(t FrameType, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return e.WriteFrame(t, payload)
}

// --- Tuple batch (data plane, client → server). ---

const tupleHeadSize = 16 // ts i64 + seq u64

// batchTraceFlag is the top bit of a batch header's fields word, above the
// field count (bounded by MaxTupleFields, 1024, so no count reaches it): the
// payload carries a trailing 8-byte client-send timestamp (unix nanoseconds)
// after the tuple bodies — the sampled trace timestamp of the observability
// layer. An untraced batch's fields word is its field count.
const batchTraceFlag = 0x8000

// AppendBatch appends a FrameBatch payload for the given tuples to dst and
// returns the extended slice. Every tuple must have exactly fields values.
func AppendBatch(dst []byte, handle uint32, fields int, tuples []stream.Tuple) ([]byte, error) {
	return appendBatch(dst, handle, fields, tuples, 0)
}

// appendBatch is the one batch encoder: a header, one body per tuple
// (appendTupleBody) and the trailer sealBatch writes, which marks the batch
// trace-sampled when sentNs (a client-send unix-nano timestamp) is non-zero.
// RemoteSession runs the same three steps spread over its FeedTuple calls.
func appendBatch(dst []byte, handle uint32, fields int, tuples []stream.Tuple, sentNs int64) ([]byte, error) {
	if len(tuples) == 0 || len(tuples) > MaxBatch {
		return nil, fmt.Errorf("wire: batch of %d tuples (want 1..%d)", len(tuples), MaxBatch)
	}
	if fields <= 0 || fields > MaxTupleFields {
		return nil, fmt.Errorf("wire: %d fields per tuple (want 1..%d)", fields, MaxTupleFields)
	}
	start := len(dst)
	dst = AppendBatchHeader(dst, handle, 0, 0)
	for i := range tuples {
		if len(tuples[i].Fields) != fields {
			return nil, fmt.Errorf("wire: tuple %d has %d fields, batch declares %d", i, len(tuples[i].Fields), fields)
		}
		dst = appendTupleBody(dst, &tuples[i], nil)
	}
	return sealBatch(dst, start, len(tuples), fields, sentNs), nil
}

// sealBatch completes the batch payload that starts at frame[start] and
// holds count tuple bodies of fields values each: it writes the header's
// count and fields word and, for a traced batch (sentNs non-zero), sets the
// trace flag and appends the timestamp.
func sealBatch(frame []byte, start, count, fields int, sentNs int64) []byte {
	word := uint16(fields)
	if sentNs != 0 {
		word |= batchTraceFlag
		frame = binary.BigEndian.AppendUint64(frame, uint64(sentNs))
	}
	binary.BigEndian.PutUint16(frame[start+4:], uint16(count))
	binary.BigEndian.PutUint16(frame[start+6:], word)
	return frame
}

// AppendTupleBody appends the batch-body encoding of one tuple — ts i64 | seq
// u64 | one f64 per field — to dst: what follows a batch header, count times
// over. It reads t only during the call, so a caller that is lent a tuple and
// must remember it (the stream store's recorder) keeps these bytes instead of
// a copy of the tuple, and frames them later with AppendBatchHeader.
func AppendTupleBody(dst []byte, t *stream.Tuple) []byte {
	return appendTupleBody(dst, t, nil)
}

// appendTupleBody is AppendTupleBody carrying only the fields in reads, in
// that order (nil: every field) — the one tuple encoder.
func appendTupleBody(dst []byte, t *stream.Tuple, reads []int) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.Ts.UnixNano()))
	dst = binary.BigEndian.AppendUint64(dst, t.Seq)
	if reads == nil {
		for _, f := range t.Fields {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
		}
		return dst
	}
	for _, j := range reads {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(t.Fields[j]))
	}
	return dst
}

// AppendBatchHeader appends the 8-byte header of an untraced full-width
// batch payload whose count tuple bodies, each fields wide, follow it.
func AppendBatchHeader(dst []byte, handle uint32, count, fields int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, handle)
	dst = binary.BigEndian.AppendUint16(dst, uint16(count))
	return binary.BigEndian.AppendUint16(dst, uint16(fields))
}

// BatchTraced reports whether a batch payload carries the trace-sample
// timestamp, by flag alone — cheap enough for a proxy hot path deciding
// whether to time a forward. It does not validate the payload.
func BatchTraced(payload []byte) bool {
	return len(payload) >= 8 && payload[6]&(batchTraceFlag>>8) != 0
}

// BatchGeometry validates a FrameBatch payload's structure — header, tuple
// count, field count, exact body length — without decoding a single tuple,
// and returns the routing facts a proxy needs; fields is the count each
// body carries. A payload that passes decodes on its own (DecodeBatch) and
// against any read set of exactly fields entries, so once a server has
// checked fields against the session's attach reply, a gateway may forward
// the payload verbatim knowing the backend cannot reject it as a protocol
// violation (tuple bodies are arbitrary float64 bits; only geometry can be
// malformed).
func BatchGeometry(payload []byte) (handle uint32, count, fields int, err error) {
	if len(payload) < 8 {
		return 0, 0, 0, fmt.Errorf("wire: batch payload of %d bytes is shorter than its header", len(payload))
	}
	handle = binary.BigEndian.Uint32(payload[:4])
	count = int(binary.BigEndian.Uint16(payload[4:6]))
	flags := binary.BigEndian.Uint16(payload[6:8])
	fields = int(flags &^ batchTraceFlag)
	if count == 0 || count > MaxBatch {
		return 0, 0, 0, fmt.Errorf("wire: batch of %d tuples (want 1..%d)", count, MaxBatch)
	}
	if fields == 0 || fields > MaxTupleFields {
		return 0, 0, 0, fmt.Errorf("wire: batch declares %d fields per tuple (want 1..%d)", fields, MaxTupleFields)
	}
	body := len(payload) - 8
	if flags&batchTraceFlag != 0 {
		body -= 8 // trailing trace timestamp
	}
	if body != count*(tupleHeadSize+8*fields) {
		return 0, 0, 0, fmt.Errorf("wire: batch body of %d bytes, want %d×%d", body, count, tupleHeadSize+8*fields)
	}
	return handle, count, fields, nil
}

// Batch is a decoded FrameBatch. Tuples share one field arena per decode;
// from DecodeBatch both the arena and the tuple headers are freshly allocated
// and the caller's to keep.
type Batch struct {
	Handle uint32
	Fields int
	Tuples []stream.Tuple
	// SentNs is the client-send unix-nano timestamp of a trace-sampled
	// batch, 0 when the batch was not sampled.
	SentNs int64
}

// DecodeBatch decodes a FrameBatch payload into memory the caller owns. The
// payload must be consumed exactly; the tuple count and width are validated
// against the payload length before the arena is allocated.
func DecodeBatch(payload []byte) (Batch, error) {
	return DecodeBatchInto(&BatchBuf{}, payload)
}

// BatchBuf is a reusable decode target — tuple headers plus one field arena —
// for a caller that decodes a batch only to lend it on and is done with it
// before it decodes the next: the zero value is ready, DecodeBatchInto grows
// it as needed, EndLoan marks the moment nobody may read the tuples any more.
// The local host's data path takes its buffers from a pool instead: they ride
// the shard queue with the tuples they hold (serve.Lender) and go back
// through Release, exactly once. The stream store's readers each own one.
type BatchBuf struct {
	tuples []stream.Tuple
	arena  []float64
	out    bool // taken from the pool and not yet released
}

var batchBufPool = sync.Pool{New: func() any { return new(BatchBuf) }}

// batchBufsOut counts pooled buffers taken and not yet released; the
// accounting tests require it to return to zero.
var batchBufsOut atomic.Int64

func getBatchBuf() *BatchBuf {
	batchBufsOut.Add(1)
	bb := batchBufPool.Get().(*BatchBuf)
	bb.out = true
	return bb
}

// EndLoan ends the loan of the tuples last decoded into bb; the owner calls
// it before decoding into bb again or dropping it. Nothing may read them
// afterwards (see stream.EndLoan).
func (bb *BatchBuf) EndLoan() { stream.EndLoan(bb.arena) }

// Release ends the loan of the tuples last decoded into a pooled bb and
// recycles it.
func (bb *BatchBuf) Release() {
	if !bb.out {
		panic("wire: batch buffer released twice")
	}
	bb.out = false
	bb.EndLoan()
	batchBufsOut.Add(-1)
	batchBufPool.Put(bb)
}

// DecodeBatchInto is DecodeBatch into bb's memory, grown as needed: the
// returned tuples alias bb and are valid until its loan ends or it is decoded
// into again. Whatever bb held before is overwritten or out of reach — the
// result has exactly the payload's tuples and fields, no stale tail.
func DecodeBatchInto(bb *BatchBuf, payload []byte) (Batch, error) {
	return decodeBatch(bb, payload, nil, 0, false)
}

// DecodeBatchReads is DecodeBatchInto for a payload that carries every field
// of a width-field schema — a stream store record — of which the caller reads
// only the fields in reads (nil: every field): only those are converted, and
// the others hold undefined values (see decodeBatch). A payload of any other
// width is refused. The empty read set still validates the whole payload
// and decodes every tuple's Ts and Seq.
func DecodeBatchReads(bb *BatchBuf, payload []byte, width int, reads *stream.ReadSet) (Batch, error) {
	return decodeBatch(bb, payload, reads, width, true)
}

// decodeBatch is the one batch decoder. The payload carries either exactly
// the fields of reads, in its order (full false), or every field of a
// width-field schema (full true); reads nil with full false takes whatever
// width the payload declares. Every field the payload carries is converted
// when reads is nil; otherwise only the fields of reads are, scattered to
// their indices in width-wide field arrays — the layout of a full decode —
// and the fields outside the set hold undefined values: NaN under
// stream.PoisonEndedLoans, since decoding into bb ends the loan of what it
// held. Either way the payload is validated as BatchGeometry does, and
// every tuple gets its Ts, Seq and a field array.
func decodeBatch(bb *BatchBuf, payload []byte, reads *stream.ReadSet, width int, full bool) (Batch, error) {
	handle, count, sent, err := BatchGeometry(payload)
	if err != nil {
		return Batch{}, err
	}
	rf := reads.Fields()
	fields := sent
	switch {
	case full && sent != width:
		return Batch{}, fmt.Errorf("wire: batch carries %d fields per tuple, the schema %d", sent, width)
	case reads == nil:
	case !full && sent != len(rf):
		return Batch{}, fmt.Errorf("wire: batch carries %d fields per tuple, the read set %d", sent, len(rf))
	case len(rf) > 0 && (width > MaxTupleFields || rf[0] < 0 || rf[len(rf)-1] >= width):
		return Batch{}, fmt.Errorf("wire: read set %v does not fit a %d-field schema", rf, width)
	default:
		fields = width
	}
	b := Batch{Handle: handle, Fields: fields}
	body := payload[8:]
	if BatchTraced(payload) {
		b.SentNs = int64(binary.BigEndian.Uint64(body[len(body)-8:]))
		body = body[:len(body)-8]
	}
	if cap(bb.arena) < count*fields {
		bb.arena = make([]float64, count*fields)
	}
	if cap(bb.tuples) < count {
		bb.tuples = make([]stream.Tuple, count)
	}
	bb.arena, bb.tuples = bb.arena[:count*fields], bb.tuples[:count]
	if reads != nil {
		bb.EndLoan()
	}
	b.Tuples = bb.tuples
	tupleSize := tupleHeadSize + 8*sent
	for i := range b.Tuples {
		off := i * tupleSize
		fs := bb.arena[i*fields : (i+1)*fields : (i+1)*fields]
		vals := body[off+tupleHeadSize : off+tupleSize]
		switch {
		case reads == nil:
			for j := range fs {
				fs[j] = math.Float64frombits(binary.BigEndian.Uint64(vals[8*j:]))
			}
		case full:
			for _, j := range rf {
				fs[j] = math.Float64frombits(binary.BigEndian.Uint64(vals[8*j:]))
			}
		default:
			for k, j := range rf {
				fs[j] = math.Float64frombits(binary.BigEndian.Uint64(vals[8*k:]))
			}
		}
		b.Tuples[i] = stream.Tuple{
			Ts:     decodeTime(int64(binary.BigEndian.Uint64(body[off:]))),
			Seq:    binary.BigEndian.Uint64(body[off+8:]),
			Fields: fs,
		}
	}
	return b, nil
}

// batchBodies returns the count tuple bodies of a FrameBatch payload that
// BatchGeometry accepted, each fields values wide: the bytes between its
// header and its trace trailer, which are what a stream store record holds.
func batchBodies(payload []byte, count, fields int) []byte {
	return payload[8 : 8+count*(tupleHeadSize+8*fields)]
}

// --- Detection push (data plane, server → client). ---

// AppendDetections appends a FrameDetections payload to dst: the session's
// cumulative tuple-drop counter plus the detections themselves.
func AppendDetections(dst []byte, handle uint32, dropped uint64, dets []anduin.Detection) ([]byte, error) {
	if len(dets) > MaxDetections {
		return nil, fmt.Errorf("wire: %d detections in one frame (max %d)", len(dets), MaxDetections)
	}
	dst = binary.BigEndian.AppendUint32(dst, handle)
	dst = binary.BigEndian.AppendUint64(dst, dropped)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(dets)))
	for i := range dets {
		d := &dets[i]
		if len(d.Gesture) > 0xffff {
			return nil, fmt.Errorf("wire: gesture name of %d bytes", len(d.Gesture))
		}
		if d.QueryID < 0 || int64(d.QueryID) > 0xffffffff {
			return nil, fmt.Errorf("wire: query id %d out of range", d.QueryID)
		}
		if len(d.Measures) > 0xffff {
			return nil, fmt.Errorf("wire: %d measures", len(d.Measures))
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(d.Gesture)))
		dst = append(dst, d.Gesture...)
		dst = binary.BigEndian.AppendUint32(dst, uint32(d.QueryID))
		dst = binary.BigEndian.AppendUint64(dst, uint64(d.Start.UnixNano()))
		dst = binary.BigEndian.AppendUint64(dst, uint64(d.End.UnixNano()))
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(d.Measures)))
		for _, m := range d.Measures {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m))
		}
	}
	return dst, nil
}

// AppendDetectionFrames appends dets to dst as consecutive FrameDetections
// payloads (handle 0, nothing dropped) of at most MaxDetections each: the
// canonical bytes of a detection list of any length, for comparing lists
// from different code paths. An empty list is one empty payload.
func AppendDetectionFrames(dst []byte, dets []anduin.Detection) ([]byte, error) {
	for first := true; first || len(dets) > 0; first = false {
		n := min(len(dets), MaxDetections)
		var err error
		if dst, err = AppendDetections(dst, 0, 0, dets[:n]); err != nil {
			return nil, err
		}
		dets = dets[n:]
	}
	return dst, nil
}

// minDetSize is the encoded size of a detection with no name and no
// measures; it bounds how many detections a payload can possibly hold.
const minDetSize = 2 + 4 + 8 + 8 + 2

// DecodeDetections decodes a FrameDetections payload strictly.
func DecodeDetections(payload []byte) (handle uint32, dropped uint64, dets []anduin.Detection, err error) {
	if len(payload) < 14 {
		return 0, 0, nil, fmt.Errorf("wire: detections payload of %d bytes is shorter than its header", len(payload))
	}
	handle = binary.BigEndian.Uint32(payload[:4])
	dropped = binary.BigEndian.Uint64(payload[4:12])
	count := int(binary.BigEndian.Uint16(payload[12:14]))
	body := payload[14:]
	if count > MaxDetections {
		return 0, 0, nil, fmt.Errorf("wire: %d detections in one frame (max %d)", count, MaxDetections)
	}
	if max := len(body) / minDetSize; count > max {
		return 0, 0, nil, fmt.Errorf("wire: %d detections cannot fit in %d payload bytes", count, len(body))
	}
	dets = make([]anduin.Detection, 0, count)
	for i := 0; i < count; i++ {
		if len(body) < 2 {
			return 0, 0, nil, fmt.Errorf("wire: detection %d truncated", i)
		}
		nameLen := int(binary.BigEndian.Uint16(body[:2]))
		body = body[2:]
		if len(body) < nameLen+22 {
			return 0, 0, nil, fmt.Errorf("wire: detection %d truncated", i)
		}
		var d anduin.Detection
		d.Gesture = string(body[:nameLen])
		body = body[nameLen:]
		d.QueryID = int(binary.BigEndian.Uint32(body[:4]))
		d.Start = decodeTime(int64(binary.BigEndian.Uint64(body[4:12])))
		d.End = decodeTime(int64(binary.BigEndian.Uint64(body[12:20])))
		nm := int(binary.BigEndian.Uint16(body[20:22]))
		body = body[22:]
		if len(body) < 8*nm {
			return 0, 0, nil, fmt.Errorf("wire: detection %d measures truncated", i)
		}
		if nm > 0 {
			d.Measures = make([]float64, nm)
			for j := range d.Measures {
				d.Measures[j] = math.Float64frombits(binary.BigEndian.Uint64(body[8*j:]))
			}
			body = body[8*nm:]
		}
		dets = append(dets, d)
	}
	if len(body) != 0 {
		return 0, 0, nil, fmt.Errorf("wire: %d trailing bytes after detections", len(body))
	}
	return handle, dropped, dets, nil
}
