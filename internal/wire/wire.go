// Package wire is the framing layer of the multi-process (Dist) backend: it
// encodes TramLib's aggregated batches — and the coordinator's small control
// messages — as length-prefixed frames on a byte stream (in practice a Unix
// domain socket between two processes of one machine).
//
// # Frame layout
//
// Every frame is a 4-byte little-endian length prefix followed by a fixed
// 16-byte header and a kind-specific payload:
//
//	offset  size  field
//	0       4     length of everything after this word (16 + payload bytes)
//	4       1     magic (0xA7)
//	5       1     version (1)
//	6       1     kind (see Kind)
//	7       1     flags (FlagFull: the batch sealed because a buffer filled)
//	8       4     source process id
//	12      4     dest (worker id for payload frames, process id otherwise)
//	16      4     count (items / runs / control payload bytes)
//	20      -     payload
//
// Three payload encodings carry the §III-B batch shapes across the process
// boundary, mirroring internal/rt's in-memory message kinds:
//
//	KindPayloads  count × uint64 — a worker-addressed batch (WW wiring,
//	              forwarded runs, Direct items): every word is for Dest.
//	KindItems     count × (uint32 dest worker, uint64 value) — a
//	              process-addressed batch (WPs send side, PP): the receiving
//	              process groups items by destination worker.
//	KindRuns      count runs, each (uint32 dest worker, uint32 n, n × uint64)
//	              — source-grouped runs (WsP): the receiver only scatters.
//
// Control frames (coordinator handshake, quiescence probes, final reports)
// put a JSON document in the payload with count = len(payload).
//
// # Zero-copy-ish discipline
//
// Encoding appends to a caller-supplied []byte (recycled by the caller's
// pool), so a sealed batch becomes one buffer write with no intermediate
// allocations. Decoding parses the frame in place and copies items into
// caller-allocated storage (the runtime's batch pools) — the frame buffer
// itself is reused for the next read. Nothing retains the wire bytes.
//
// # Robustness
//
// Readers validate the magic, version, kind range, and the exact consistency
// of count with the payload length before interpreting anything; a truncated,
// oversized, or corrupt frame yields an error, never a panic or a bogus
// batch. The fuzz targets in fuzz_test.go hold this line.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const (
	// Magic is the first header byte of every frame.
	Magic = 0xA7
	// Version is the frame format version.
	Version = 1
	// HeaderBytes is the fixed header size after the length prefix.
	HeaderBytes = 16
	// prefixBytes is the length-prefix size.
	prefixBytes = 4
)

// DefaultMaxFrameBytes caps accepted frame sizes (length prefix value). It is
// far above any sane batch (a 1M-item run batch is 12 MiB) while rejecting
// corrupt prefixes that would OOM the reader.
const DefaultMaxFrameBytes = 1 << 26

// FlagFull marks a batch that sealed because its buffer filled (as opposed to
// an explicit, idle, or deadline flush) — it feeds the FullMsgs metric.
const FlagFull = 1 << 0

// Kind discriminates frame payloads.
type Kind uint8

const (
	// KindInvalid is the zero Kind; never on the wire.
	KindInvalid Kind = iota
	// KindPayloads is a worker-addressed batch of packed uint64 items.
	KindPayloads
	// KindItems is a process-addressed batch of (dest worker, value) items.
	KindItems
	// KindRuns is a process-addressed batch pre-grouped into per-worker runs.
	KindRuns
	// KindControl is a coordinator control message (JSON payload).
	KindControl
	// KindBundle is a relay envelope for two-level (node-leader) routing: the
	// payload is a concatenation of Count complete frames — each with its own
	// length prefix — possibly bound for different final destinations. Source
	// is the relaying process, Dest the next hop on the link; the inner
	// frames keep their original endpoints. Bundles never nest.
	KindBundle
	kindMax
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindPayloads:
		return "payloads"
	case KindItems:
		return "items"
	case KindRuns:
		return "runs"
	case KindControl:
		return "control"
	case KindBundle:
		return "bundle"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Item is one process-addressed item: a packed payload word bound for a
// destination worker (internal/rt's in-memory Item is this type).
type Item struct {
	Dest uint32
	Val  uint64
}

// Run is one pre-grouped run inside a KindRuns frame: payload words all
// addressed to a single destination worker.
type Run struct {
	Dest     uint32
	Payloads []uint64
}

const itemBytes = 12 // uint32 dest + uint64 val
const runHeaderBytes = 8

// Header is a decoded frame header.
type Header struct {
	Kind   Kind
	Flags  uint8
	Source uint32
	Dest   uint32
	Count  uint32
}

// Full reports whether the frame's batch sealed because a buffer filled.
func (h Header) Full() bool { return h.Flags&FlagFull != 0 }

// appendHeader appends the length prefix and header for a frame with the
// given payload size.
func appendHeader(buf []byte, kind Kind, flags uint8, source, dest, count uint32, payloadBytes int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(HeaderBytes+payloadBytes))
	buf = append(buf, Magic, Version, byte(kind), flags)
	buf = binary.LittleEndian.AppendUint32(buf, source)
	buf = binary.LittleEndian.AppendUint32(buf, dest)
	buf = binary.LittleEndian.AppendUint32(buf, count)
	return buf
}

// The FrameBytes helpers return the exact encoded size of a frame, length
// prefix included. Transports that reserve space before encoding (the
// shared-memory ring writes frames in place) size their reservation with
// these; Append* into a slice of exactly this capacity never reallocates.

// PayloadsFrameBytes returns the encoded size of a KindPayloads frame
// carrying n payload words.
func PayloadsFrameBytes(n int) int { return prefixBytes + HeaderBytes + 8*n }

// ItemsFrameBytes returns the encoded size of a KindItems frame carrying n
// items.
func ItemsFrameBytes(n int) int { return prefixBytes + HeaderBytes + itemBytes*n }

// RunsFrameBytes returns the encoded size of a KindRuns frame carrying runs.
func RunsFrameBytes(runs []Run) int {
	n := prefixBytes + HeaderBytes
	for _, r := range runs {
		n += runHeaderBytes + 8*len(r.Payloads)
	}
	return n
}

// BundleFrameBytes returns the encoded size of a KindBundle frame whose
// payload carries innerBytes bytes of concatenated complete frames.
func BundleFrameBytes(innerBytes int) int { return prefixBytes + HeaderBytes + innerBytes }

// AppendPayloads appends a KindPayloads frame carrying a worker-addressed
// batch to buf and returns the extended buffer.
func AppendPayloads(buf []byte, source, destWorker uint32, payloads []uint64, full bool) []byte {
	var flags uint8
	if full {
		flags = FlagFull
	}
	buf = appendHeader(buf, KindPayloads, flags, source, destWorker, uint32(len(payloads)), 8*len(payloads))
	for _, v := range payloads {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	return buf
}

// AppendItems appends a KindItems frame carrying a process-addressed batch.
func AppendItems(buf []byte, source, destProc uint32, items []Item, full bool) []byte {
	var flags uint8
	if full {
		flags = FlagFull
	}
	buf = appendHeader(buf, KindItems, flags, source, destProc, uint32(len(items)), itemBytes*len(items))
	for _, it := range items {
		buf = binary.LittleEndian.AppendUint32(buf, it.Dest)
		buf = binary.LittleEndian.AppendUint64(buf, it.Val)
	}
	return buf
}

// AppendRuns appends a KindRuns frame carrying source-grouped runs.
func AppendRuns(buf []byte, source, destProc uint32, runs []Run, full bool) []byte {
	var flags uint8
	if full {
		flags = FlagFull
	}
	payload := 0
	for _, r := range runs {
		payload += runHeaderBytes + 8*len(r.Payloads)
	}
	buf = appendHeader(buf, KindRuns, flags, source, destProc, uint32(len(runs)), payload)
	for _, r := range runs {
		buf = binary.LittleEndian.AppendUint32(buf, r.Dest)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Payloads)))
		for _, v := range r.Payloads {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	return buf
}

// Batch is one data frame held in memory, ready to encode: a sealed batch
// in one of the three data shapes (Kind selects which slice carries it), or
// — when Raw is set — a complete frame already encoded, which encodes
// verbatim. It is the unit every sender hands down to the link that writes
// it: the runtime seals one, a peer link or relay encodes it, and because it
// knows its exact encoded size a ring can reserve space and encode it in
// place. Passed by value, it never allocates; the slices stay owned by the
// caller.
type Batch struct {
	Kind Kind
	Full bool
	// Source is the sending process; Dest the destination worker
	// (KindPayloads) or process (KindItems, KindRuns).
	Source, Dest uint32
	Payloads     []uint64
	Items        []Item
	Runs         []Run
	// Raw, when non-nil, is a complete encoded frame (length prefix
	// included); the other fields are ignored.
	Raw []byte
}

// FrameBytes returns the batch's exact encoded size, length prefix
// included.
func (b *Batch) FrameBytes() int {
	if b.Raw != nil {
		return len(b.Raw)
	}
	switch b.Kind {
	case KindPayloads:
		return PayloadsFrameBytes(len(b.Payloads))
	case KindItems:
		return ItemsFrameBytes(len(b.Items))
	case KindRuns:
		return RunsFrameBytes(b.Runs)
	}
	panic(fmt.Sprintf("wire: %v is not a batch kind", b.Kind))
}

// Append appends the batch's frame to buf and returns the extended buffer.
func (b *Batch) Append(buf []byte) []byte {
	if b.Raw != nil {
		return append(buf, b.Raw...)
	}
	switch b.Kind {
	case KindPayloads:
		return AppendPayloads(buf, b.Source, b.Dest, b.Payloads, b.Full)
	case KindItems:
		return AppendItems(buf, b.Source, b.Dest, b.Items, b.Full)
	case KindRuns:
		return AppendRuns(buf, b.Source, b.Dest, b.Runs, b.Full)
	}
	panic(fmt.Sprintf("wire: %v is not a batch kind", b.Kind))
}

// AppendControl appends a KindControl frame; dest carries the control opcode
// (the dist protocol's message type), the payload is an opaque document
// (JSON in practice).
func AppendControl(buf []byte, source, opcode uint32, doc []byte) []byte {
	buf = appendHeader(buf, KindControl, 0, source, opcode, uint32(len(doc)), len(doc))
	return append(buf, doc...)
}

// AppendBundle appends a KindBundle frame: inner is the concatenation of
// count complete frames (each with its own length prefix), typically
// accumulated by a relay from frames it already has in encoded form. The
// encoder trusts the producer; the decoder re-validates every inner frame.
func AppendBundle(buf []byte, source, destProc uint32, count int, inner []byte) []byte {
	return append(AppendBundleHeader(buf, source, destProc, count, len(inner)), inner...)
}

// AppendBundleHeader appends the BundleFrameBytes(0) bytes of length prefix
// and header that open a KindBundle frame of count inner frames totalling
// innerBytes. A relay that reserves that many bytes at the front of a buffer
// and appends the inner frames after them seals the bundle in place with
// AppendBundleHeader(buf[:0], ...).
func AppendBundleHeader(buf []byte, source, destProc uint32, count, innerBytes int) []byte {
	return appendHeader(buf, KindBundle, 0, source, destProc, uint32(count), innerBytes)
}

// Frame is one decoded frame: the header plus the raw payload bytes, which
// alias the decode input (valid only until the caller reuses its buffer).
type Frame struct {
	Header
	Payload []byte
}

// FrameBytes returns the frame's encoded size, length prefix included —
// what AppendFrame appends.
func (f Frame) FrameBytes() int { return prefixBytes + HeaderBytes + len(f.Payload) }

// AppendFrame re-encodes a decoded frame verbatim — header fields and
// payload unchanged — producing bytes identical to the original encoding.
// Relays use it to forward a frame they only hold decoded.
func AppendFrame(buf []byte, f Frame) []byte {
	buf = appendHeader(buf, f.Kind, f.Flags, f.Source, f.Dest, f.Count, len(f.Payload))
	return append(buf, f.Payload...)
}

// Errors returned by the decoder. ErrShort means more bytes are needed (the
// input ends mid-frame); the others reject the frame permanently.
var (
	ErrShort    = errors.New("wire: truncated frame")
	ErrMagic    = errors.New("wire: bad magic byte")
	ErrVersion  = errors.New("wire: unsupported version")
	ErrKind     = errors.New("wire: unknown frame kind")
	ErrCount    = errors.New("wire: count inconsistent with payload length")
	ErrTooLarge = errors.New("wire: frame exceeds size limit")
)

// Decode parses the first frame in b, returning the frame and the number of
// bytes it consumed. maxFrame <= 0 selects DefaultMaxFrameBytes. The frame's
// Payload aliases b.
func Decode(b []byte, maxFrame int) (Frame, int, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrameBytes
	}
	if len(b) < prefixBytes {
		return Frame{}, 0, ErrShort
	}
	length := int(binary.LittleEndian.Uint32(b))
	if length > maxFrame {
		return Frame{}, 0, fmt.Errorf("%w: %d > %d", ErrTooLarge, length, maxFrame)
	}
	if length < HeaderBytes {
		return Frame{}, 0, fmt.Errorf("%w: length %d below header size", ErrCount, length)
	}
	if len(b) < prefixBytes+length {
		return Frame{}, 0, ErrShort
	}
	body := b[prefixBytes : prefixBytes+length]
	f, err := parseBody(body)
	if err != nil {
		return Frame{}, 0, err
	}
	return f, prefixBytes + length, nil
}

// parseBody validates the 16-byte header and the payload/count consistency.
func parseBody(body []byte) (Frame, error) {
	if body[0] != Magic {
		return Frame{}, ErrMagic
	}
	if body[1] != Version {
		return Frame{}, fmt.Errorf("%w: %d", ErrVersion, body[1])
	}
	kind := Kind(body[2])
	if kind == KindInvalid || kind >= kindMax {
		return Frame{}, fmt.Errorf("%w: %d", ErrKind, body[2])
	}
	f := Frame{
		Header: Header{
			Kind:   kind,
			Flags:  body[3],
			Source: binary.LittleEndian.Uint32(body[4:]),
			Dest:   binary.LittleEndian.Uint32(body[8:]),
			Count:  binary.LittleEndian.Uint32(body[12:]),
		},
		Payload: body[HeaderBytes:],
	}
	n := int(f.Count)
	switch kind {
	case KindPayloads:
		if len(f.Payload) != 8*n {
			return Frame{}, fmt.Errorf("%w: %d payloads in %d bytes", ErrCount, n, len(f.Payload))
		}
	case KindItems:
		if len(f.Payload) != itemBytes*n {
			return Frame{}, fmt.Errorf("%w: %d items in %d bytes", ErrCount, n, len(f.Payload))
		}
	case KindRuns:
		if err := validateRuns(f.Payload, n); err != nil {
			return Frame{}, err
		}
	case KindControl:
		if len(f.Payload) != n {
			return Frame{}, fmt.Errorf("%w: control payload %d bytes, count %d", ErrCount, len(f.Payload), n)
		}
	case KindBundle:
		if err := validateBundle(f.Payload, n); err != nil {
			return Frame{}, err
		}
	}
	return f, nil
}

// validateBundle walks a bundle payload checking that exactly nFrames
// complete, individually valid, non-bundle frames cover exactly the payload.
// Rejecting nested bundles bounds the recursion at one level.
func validateBundle(p []byte, nFrames int) error {
	off := 0
	for i := 0; i < nFrames; i++ {
		if len(p)-off < prefixBytes {
			return fmt.Errorf("%w: bundle frame %d prefix truncated", ErrCount, i)
		}
		length := int(binary.LittleEndian.Uint32(p[off:]))
		if length < HeaderBytes || length > len(p)-off-prefixBytes {
			return fmt.Errorf("%w: bundle frame %d claims %d bytes", ErrCount, i, length)
		}
		body := p[off+prefixBytes : off+prefixBytes+length]
		if Kind(body[2]) == KindBundle {
			return fmt.Errorf("%w: nested bundle at frame %d", ErrKind, i)
		}
		if _, err := parseBody(body); err != nil {
			return fmt.Errorf("bundle frame %d: %w", i, err)
		}
		off += prefixBytes + length
	}
	if off != len(p) {
		return fmt.Errorf("%w: %d trailing bytes after %d bundled frames", ErrCount, len(p)-off, nFrames)
	}
	return nil
}

// validateRuns walks the runs encoding checking that exactly nRuns runs cover
// exactly the payload.
func validateRuns(p []byte, nRuns int) error {
	off := 0
	for i := 0; i < nRuns; i++ {
		if len(p)-off < runHeaderBytes {
			return fmt.Errorf("%w: run %d header truncated", ErrCount, i)
		}
		n := int(binary.LittleEndian.Uint32(p[off+4:]))
		off += runHeaderBytes
		if n > (len(p)-off)/8 {
			return fmt.Errorf("%w: run %d claims %d payloads", ErrCount, i, n)
		}
		off += 8 * n
	}
	if off != len(p) {
		return fmt.Errorf("%w: %d trailing bytes after %d runs", ErrCount, len(p)-off, nRuns)
	}
	return nil
}

// Payloads decodes a KindPayloads frame's words into dst (dst must have
// length Count; alloc-free when dst comes from the caller's pool).
func (f Frame) Payloads(dst []uint64) []uint64 {
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(f.Payload[8*i:])
	}
	return dst
}

// Items decodes a KindItems frame's items into dst (length Count).
func (f Frame) Items(dst []Item) []Item {
	for i := range dst {
		off := itemBytes * i
		dst[i] = Item{
			Dest: binary.LittleEndian.Uint32(f.Payload[off:]),
			Val:  binary.LittleEndian.Uint64(f.Payload[off+4:]),
		}
	}
	return dst
}

// EachItem iterates a KindItems frame without materializing []Item, so
// callers can decode straight into their own item representation.
func (f Frame) EachItem(fn func(dest uint32, val uint64)) {
	for i := uint32(0); i < f.Count; i++ {
		off := itemBytes * int(i)
		fn(binary.LittleEndian.Uint32(f.Payload[off:]), binary.LittleEndian.Uint64(f.Payload[off+4:]))
	}
}

// Runs decodes a KindRuns frame, appending its runs to dst and returning
// the extended slice. alloc supplies each run's payload storage, of length
// n (the caller's pool). The frame was validated at Decode time, so the walk
// cannot run off the payload.
func (f Frame) Runs(dst []Run, alloc func(n int) []uint64) []Run {
	p := f.Payload
	off := 0
	for i := uint32(0); i < f.Count; i++ {
		dest := binary.LittleEndian.Uint32(p[off:])
		n := int(binary.LittleEndian.Uint32(p[off+4:]))
		off += runHeaderBytes
		words := alloc(n)[:n]
		for j := range words {
			words[j] = binary.LittleEndian.Uint64(p[off+8*j:])
		}
		off += 8 * n
		dst = append(dst, Run{Dest: dest, Payloads: words})
	}
	return dst
}

// EachFrame iterates a KindBundle frame, calling fn with each inner frame in
// order along with its raw encoding (length prefix included, aliasing the
// bundle payload) so relays can forward without re-encoding. The bundle was
// validated at Decode time, so the walk cannot fail; fn returning an error
// stops the iteration and returns that error.
func (f Frame) EachFrame(fn func(raw []byte, inner Frame) error) error {
	p := f.Payload
	off := 0
	for i := uint32(0); i < f.Count; i++ {
		length := int(binary.LittleEndian.Uint32(p[off:]))
		raw := p[off : off+prefixBytes+length]
		inner, err := parseBody(raw[prefixBytes:])
		if err != nil {
			return err
		}
		if err := fn(raw, inner); err != nil {
			return err
		}
		off += prefixBytes + length
	}
	return nil
}

// Reader decodes frames from a byte stream, reusing one internal buffer; the
// returned frames alias it and are valid until the next Next call.
type Reader struct {
	r        io.Reader
	prefix   [prefixBytes]byte // a field, not a local, so reading it does not allocate
	buf      []byte
	maxFrame int
}

// NewReader returns a frame reader over r. maxFrame <= 0 selects
// DefaultMaxFrameBytes.
func NewReader(r io.Reader, maxFrame int) *Reader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrameBytes
	}
	return &Reader{r: r, buf: make([]byte, 0, 4096), maxFrame: maxFrame}
}

// Next reads, validates, and returns the next frame. io.EOF at a frame
// boundary is returned as io.EOF; EOF mid-frame is io.ErrUnexpectedEOF.
func (r *Reader) Next() (Frame, error) {
	if _, err := io.ReadFull(r.r, r.prefix[:]); err != nil {
		return Frame{}, err
	}
	length := int(binary.LittleEndian.Uint32(r.prefix[:]))
	if length > r.maxFrame {
		return Frame{}, fmt.Errorf("%w: %d > %d", ErrTooLarge, length, r.maxFrame)
	}
	if length < HeaderBytes {
		return Frame{}, fmt.Errorf("%w: length %d below header size", ErrCount, length)
	}
	if cap(r.buf) < length {
		r.buf = make([]byte, 0, length)
	}
	body := r.buf[:length]
	if _, err := io.ReadFull(r.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	return parseBody(body)
}
