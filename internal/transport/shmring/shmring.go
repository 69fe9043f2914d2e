// Package shmring implements the shared-memory half of the Dist backend's
// peer data plane: a file-backed, mmap'd single-producer/single-consumer byte
// ring carrying length-prefixed records between two OS processes on one
// machine. It is the fast path the paper's SMP-aware argument predicts:
// same-node exchange should cost a memory copy and a fence, not a frame
// encode plus two syscalls plus a kernel socket buffer copy.
//
// # Segment layout
//
// One segment file backs one *directed* peer pair (p -> q); the receiver
// creates and sizes it, the sender opens it, both mmap it MAP_SHARED. The
// mapping is:
//
//	offset  size  field
//	0       8     magic "tramring"
//	8       4     version (1)
//	12      4     reserved
//	16      8     capacity (bytes of data area)
//	24      40    reserved (pads the meta line)
//	64      8     head — producer cursor (monotone byte count, atomic)
//	72      56    pad (head owns its cache line: the producer's stores never
//	              false-share with the consumer's tail line)
//	128     8     tail — consumer cursor (monotone byte count, atomic)
//	136     56    pad
//	192     8     consumer liveness stamp: owner PID (atomic)
//	200     8     consumer attach epoch (UnixNano)
//	208     8     producer liveness stamp: owner PID (atomic)
//	216     8     producer attach epoch (UnixNano)
//	224     32    reserved
//	256     cap   data area (records, wrapped)
//
// head and tail are monotone uint64 byte counts; position in the data area is
// count % capacity. head == tail means empty; head - tail is the number of
// unconsumed bytes and can never exceed capacity (readers treat a violation
// as corruption, not as a reason to over-read).
//
// # Records
//
// A record is a 4-byte little-endian length prefix followed by that many
// bytes — exactly the wire package's frame encoding, so a ring record IS the
// socket byte stream's frame, written once into the mapping and parsed in
// place by the consumer (zero copies between the producer's encode and the
// consumer's decode). Records never wrap: a producer that does not have
// enough contiguous space to the end of the data area writes a pad marker
// (prefix 0xFFFF_FFFF) and continues at offset 0; a contiguous remainder too
// small to hold even the 4-byte prefix is skipped implicitly by both sides.
// The prefix 0xFFFF_FFFE is the end-of-stream marker: the producer writes it
// on CloseSend and the consumer's Recv returns cleanly. Both markers are far
// above any legal record length (records are capped at half the data area —
// see Write — which also guarantees a wrapping record's pad-plus-record cost
// fits the ring), so a marker can never be mistaken for a length.
//
// # Synchronization
//
// The producer publishes a record by storing head with release semantics
// after the record bytes are written; the consumer acquires head, parses, and
// releases tail when done. Go's sync/atomic operations provide the fences,
// and because both processes map the same physical pages the protocol is the
// textbook SPSC ring across the process boundary. Single-producer is a
// caller obligation (the transport layer serializes senders with a mutex —
// making the process the single producer — exactly as it serializes socket
// writes).
//
// A full producer and an empty consumer both wait in two phases: a bounded
// spin (cheap when the peer is actively draining, the common case for a
// latency-sensitive progress loop) and then a parked phase of short sleeps —
// the wakeup latency trade documented on Wait.
//
// # Liveness
//
// Create (the consumer) and Open (the producer) each stamp their PID and an
// attach epoch into the header's reserved line, so either side of a parked
// wait can ask "is my peer still a live process?" A producer blocked on a
// full ring whose consumer died returns ErrPeerDead within a few
// milliseconds instead of waiting forever, and a consumer parked on an empty
// ring whose producer died without publishing the end-of-stream marker does
// the same — with the published state rechecked first, so an EOF or record
// that made it into the mapping before the death is never lost. The check is
// a signal-0 probe of the stamped PID; the epoch disambiguates diagnostics
// (PID reuse makes a false "alive" possible but merely delays detection
// until the run-level timeout). SetDeadline additionally bounds any single
// parked wait outright (ErrStalled) for callers that must not block on a
// live-but-wedged peer. Attach'd (role-less, in-memory) rings skip liveness
// entirely — fuzz images carry arbitrary header bytes.
//
// # Robustness
//
// The segment header and every cursor/prefix read off the shared mapping are
// validated before use: bad magic/version/capacity fail Attach; a cursor
// inversion (tail > head), an over-capacity imbalance, a record length that
// exceeds the contiguous remainder, or a truncated data area fail Recv with
// an error — never a panic or a read outside the mapped data area. The fuzz
// target in fuzz_test.go feeds arbitrary segment bytes through Attach and a
// draining reader to hold that line.
package shmring

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"
)

const (
	// Version is the segment format version.
	Version = 1
	// DefaultDataBytes sizes a segment's data area when the caller passes 0.
	DefaultDataBytes = 1 << 20

	magic       = "tramring"
	headerBytes = 256 // data area offset
	headOff     = 64
	tailOff     = 128
	// Liveness stamps live in the (formerly reserved, zero on creation) 192
	// line, so segments carrying them stay Version 1: a stamp-less image
	// reads PID 0, which every liveness check treats as "alive".
	consPIDOff   = 192
	consEpochOff = 200
	prodPIDOff   = 208
	prodEpochOff = 216
	prefixBytes  = 4

	// padMarker and eofMarker are reserved prefix values (see the package
	// comment). maxRecordCap keeps every legal record length below both.
	padMarker    = 0xFFFF_FFFF
	eofMarker    = 0xFFFF_FFFE
	maxRecordCap = 0xF000_0000

	// spinBudget is the bounded-spin phase of a wait: iterations of
	// cursor-polling (with a Gosched each round) before parking.
	spinBudget = 256
	// parkSleep is the parked phase's poll interval. It bounds the wakeup
	// latency a sleeping side adds to an otherwise idle ring; 20µs is far
	// below the millisecond-scale FlushDeadline the runtime enforces.
	parkSleep = 20 * time.Microsecond
	// livenessEvery is how many parked naps pass between peer-PID liveness
	// probes: one kill(pid, 0) syscall per ~1.3ms of parked waiting.
	livenessEvery = 64
)

// Errors surfaced by segment validation and the reader.
var (
	ErrMagic    = errors.New("shmring: bad segment magic")
	ErrVersion  = errors.New("shmring: unsupported segment version")
	ErrCapacity = errors.New("shmring: segment capacity inconsistent with size")
	ErrCorrupt  = errors.New("shmring: corrupt ring state")
	ErrClosed   = errors.New("shmring: ring closed")
	ErrTooLarge = errors.New("shmring: record exceeds ring capacity")
	// ErrPeerDead ends a parked wait whose peer process no longer exists
	// (liveness stamp probe failed with nothing newly published).
	ErrPeerDead = errors.New("shmring: peer process died")
	// ErrStalled ends a parked wait that outlived the SetDeadline bound.
	ErrStalled = errors.New("shmring: wait deadline exceeded")
)

// Ring is one mapped segment. The creating (consumer) side uses Recv; the
// opening (producer) side uses Write/CloseSend. A Ring is not safe for
// concurrent use by multiple goroutines on the same side; the transport
// layer serializes producers externally.
type Ring struct {
	mem  []byte // whole mapping (header + data)
	data []byte // mem[headerBytes:]
	cap  uint64
	file *os.File // nil for memory-backed (test/fuzz) rings
	mapd bool     // mem came from mmap (Close must munmap)

	closed   atomic.Bool   // local interrupt flag: unblocks parked waits
	intr     chan struct{} // closed with the flag: wakes a parked wait NOW
	released bool          // mapping freed (Close is owning-goroutine-only)

	// role says which liveness stamp is ours and which is the peer's:
	// roleConsumer for Create, roleProducer for Open, roleNone for Attach
	// (no file, no peer process, no liveness checks).
	role role
	// deadline, when positive, bounds each blocking Write/Recv wait
	// (SetDeadline); parked waits that exceed it return ErrStalled.
	deadline time.Duration
}

// role is a Ring's side of the directed pair (which liveness stamp is ours).
type role uint8

const (
	roleNone role = iota
	roleConsumer
	roleProducer
)

func (r *Ring) head() *atomic.Uint64 {
	return (*atomic.Uint64)(ptrAt(r.mem, headOff))
}

func (r *Ring) tail() *atomic.Uint64 {
	return (*atomic.Uint64)(ptrAt(r.mem, tailOff))
}

// Create creates (truncating any stale file) and maps a segment with a
// dataBytes data area (0 selects DefaultDataBytes). The creator is the
// consumer side of the directed pair.
func Create(path string, dataBytes int) (*Ring, error) {
	if dataBytes <= 0 {
		dataBytes = DefaultDataBytes
	}
	if dataBytes > maxRecordCap {
		return nil, fmt.Errorf("shmring: data area %d too large", dataBytes)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, err
	}
	size := int64(headerBytes + dataBytes)
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, err
	}
	mem, err := mapFile(f, int(size))
	if err != nil {
		f.Close()
		return nil, err
	}
	copy(mem[:8], magic)
	binary.LittleEndian.PutUint32(mem[8:], Version)
	binary.LittleEndian.PutUint64(mem[16:], uint64(dataBytes))
	r, err := attach(mem)
	if err != nil { // cannot happen for a header we just wrote
		unmapMem(mem)
		f.Close()
		return nil, err
	}
	r.file, r.mapd = f, true
	r.role = roleConsumer
	r.stampOwner()
	return r, nil
}

// Open maps an existing segment (created by the peer) and validates its
// header. The opener is the producer side of the directed pair.
func Open(path string) (*Ring, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	mem, err := mapFile(f, int(st.Size()))
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := attach(mem)
	if err != nil {
		unmapMem(mem)
		f.Close()
		return nil, err
	}
	r.file, r.mapd = f, true
	r.role = roleProducer
	r.stampOwner()
	return r, nil
}

// Attach validates mem as a segment image and returns a Ring over it without
// any file backing — the pure in-memory form the unit tests and the fuzz
// target drive. mem must remain valid for the Ring's lifetime and its base
// must be 8-byte aligned when two Rings are to share it (a misaligned image,
// possible for fuzz inputs, is copied, so single-sided use always works).
func Attach(mem []byte) (*Ring, error) {
	if len(mem) >= headerBytes && !aligned8(mem) {
		mem = append(make([]byte, 0, len(mem)), mem...)
		if !aligned8(mem) { // allocator gives 8-aligned blocks for sizes >= 8
			return nil, fmt.Errorf("shmring: cannot align segment image")
		}
	}
	return attach(mem)
}

// attach validates the header: magic, version, and that the declared
// capacity exactly matches the bytes beyond the header.
func attach(mem []byte) (*Ring, error) {
	if len(mem) < headerBytes {
		return nil, fmt.Errorf("%w: %d bytes below header size", ErrCapacity, len(mem))
	}
	if string(mem[:8]) != magic {
		return nil, ErrMagic
	}
	if v := binary.LittleEndian.Uint32(mem[8:]); v != Version {
		return nil, fmt.Errorf("%w: %d", ErrVersion, v)
	}
	capb := binary.LittleEndian.Uint64(mem[16:])
	if capb == 0 || capb > maxRecordCap || capb != uint64(len(mem)-headerBytes) {
		return nil, fmt.Errorf("%w: capacity %d, data area %d", ErrCapacity, capb, len(mem)-headerBytes)
	}
	return &Ring{mem: mem, data: mem[headerBytes:], cap: capb, intr: make(chan struct{})}, nil
}

// stampOwner publishes this side's PID and attach epoch into the header so
// the peer's parked waits can probe our liveness.
func (r *Ring) stampOwner() {
	pidOff, epochOff := consPIDOff, consEpochOff
	if r.role == roleProducer {
		pidOff, epochOff = prodPIDOff, prodEpochOff
	}
	(*atomic.Uint64)(ptrAt(r.mem, epochOff)).Store(uint64(time.Now().UnixNano()))
	(*atomic.Uint64)(ptrAt(r.mem, pidOff)).Store(uint64(os.Getpid()))
}

// peerAlive probes the peer side's liveness stamp. An unstamped (zero) PID —
// the peer not attached yet, or a pre-liveness segment — reads as alive, as
// does a role-less ring: liveness can declare death only when a real peer
// once stamped itself.
func (r *Ring) peerAlive() bool {
	var pidOff int
	switch r.role {
	case roleConsumer:
		pidOff = prodPIDOff
	case roleProducer:
		pidOff = consPIDOff
	default:
		return true
	}
	pid := (*atomic.Uint64)(ptrAt(r.mem, pidOff)).Load()
	if pid == 0 || pid > uint64(^uint32(0)) {
		return true
	}
	return pidAlive(int(pid))
}

// MaxRecordBytes returns the largest record (prefix included) Write
// accepts: half the data area, the bound that keeps a wrapping record's
// pad-plus-record cost below what the consumer can ever free.
func MaxRecordBytes(dataBytes int) int { return dataBytes / 2 }

// Interrupt unblocks this side's parked waits — they return ErrClosed — without
// releasing the mapping. It is the only method safe to call from a goroutine
// other than the side's owner: the owner (a consumer inside Recv, a producer
// inside Write) may still be dereferencing the mapping, so the actual unmap
// must wait for Close from the owning goroutine once those calls return.
// Delivery is immediate: closing the interrupt channel wakes a parked wait
// out of its nap rather than waiting for the next poll.
func (r *Ring) Interrupt() {
	if r.closed.CompareAndSwap(false, true) {
		close(r.intr)
	}
}

// SetDeadline bounds every subsequent blocking Write/Recv wait: a parked
// wait that exceeds d returns ErrStalled. d <= 0 (the default) leaves waits
// unbounded. Set it before the ring is in use (it is read without
// synchronization by this side's waits).
func (r *Ring) SetDeadline(d time.Duration) { r.deadline = d }

// Close releases the local mapping and backing file handle. Owning goroutine
// only (see Interrupt); idempotent. It does not signal the peer — CloseSend
// does.
func (r *Ring) Close() error {
	r.Interrupt()
	if r.released {
		return nil
	}
	r.released = true
	var err error
	if r.mapd {
		err = unmapMem(r.mem)
		r.mem, r.data = nil, nil
	}
	if r.file != nil {
		if cerr := r.file.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// --- producer side ---

// Write appends one record of exactly `total` bytes (its 4-byte length
// prefix included): it reserves contiguous space, calls fill with a
// zero-length slice of capacity total for the caller to append the full
// record into (prefix first — wire.Append* does both), and publishes it.
// fill must fill exactly total bytes whose prefix reads total-4; anything
// else is a programming error and returns ErrCorrupt with the ring poisoned.
// Blocks (bounded spin, then parked sleep) while the consumer is behind;
// returns ErrClosed if Interrupt/Close lands mid-wait, ErrPeerDead if the
// consumer's process dies while we wait, ErrStalled past a SetDeadline
// bound, and ErrTooLarge if the record can never fit.
func (r *Ring) Write(total int, fill func(dst []byte) []byte) error {
	// Records are capped at half the data area: a record that must wrap
	// costs its contiguous size plus the skipped remainder against the
	// head-tail budget, and rem < total <= cap/2 keeps that sum below
	// capacity — without the cap, an unluckily placed large record could
	// need more than the ring can ever free (see MaxRecordBytes).
	if r.closed.Load() {
		// Interrupted or closed: the mapping may already be released; never
		// dereference it (a send racing teardown must error, not fault).
		return ErrClosed
	}
	if total < prefixBytes || uint64(total) > r.cap/2 || total > maxRecordCap {
		return fmt.Errorf("%w: %d bytes, capacity %d (records are capped at half the data area)", ErrTooLarge, total, r.cap)
	}
	head := r.head().Load() // producer-owned: no concurrent writer
	pos, err := r.reserve(head, uint64(total))
	if err != nil {
		return err
	}
	got := fill(r.data[pos : pos : pos+uint64(total)])
	if len(got) != total || binary.LittleEndian.Uint32(got) != uint32(total-prefixBytes) {
		return fmt.Errorf("%w: fill produced %d bytes for a %d-byte record", ErrCorrupt, len(got), total)
	}
	newHead := head + uint64(total)
	if pos == 0 && head%r.cap != 0 {
		// Wrapped: account the skipped remainder at the end of the area.
		newHead += r.cap - head%r.cap
	}
	r.head().Store(newHead)
	return nil
}

// CloseSend publishes the end-of-stream marker (the consumer's Recv returns
// nil once it drains to it) and releases the local mapping. If the consumer
// stops draining — or its process is dead, per the liveness stamp — the
// marker is abandoned after a bounded wait: the run's coordinator owns
// hung-peer recovery, not the ring.
func (r *Ring) CloseSend() error {
	head := r.head().Load()
	deadline := time.Now().Add(100 * time.Millisecond)
	for {
		pos, ok, err := r.tryReserve(head, prefixBytes)
		if err != nil {
			break
		}
		if ok {
			binary.LittleEndian.PutUint32(r.data[pos:], eofMarker)
			if pos == 0 && head%r.cap != 0 {
				head += r.cap - head%r.cap
			}
			r.head().Store(head + prefixBytes)
			break
		}
		if time.Now().After(deadline) || !r.peerAlive() {
			break
		}
		time.Sleep(parkSleep)
	}
	return r.Close()
}

// tryReserve attempts to claim `need` contiguous bytes at the producer
// cursor without blocking, writing a pad marker and wrapping when the tail
// of the data area is too short. ok reports whether the claim succeeded;
// pos is the data-area position to write at.
func (r *Ring) tryReserve(head, need uint64) (pos uint64, ok bool, err error) {
	pos = head % r.cap
	rem := r.cap - pos
	want := need
	if rem < need {
		want = rem + need // pad to the end, then the record at 0
	}
	tail := r.tail().Load()
	if tail > head || head-tail > r.cap {
		return 0, false, fmt.Errorf("%w: head %d vs tail %d (cap %d)", ErrCorrupt, head, tail, r.cap)
	}
	if r.cap-(head-tail) < want {
		return 0, false, nil
	}
	if rem < need {
		if rem >= prefixBytes {
			binary.LittleEndian.PutUint32(r.data[pos:], padMarker)
		}
		return 0, true, nil
	}
	return pos, true, nil
}

// reserve is the blocking form of tryReserve: bounded spin, then parked
// sleeps, until space frees up (or the local side is interrupted).
func (r *Ring) reserve(head, need uint64) (uint64, error) {
	for {
		pos, ok, err := r.tryReserve(head, need)
		if err != nil {
			return 0, err
		}
		if ok {
			return pos, nil
		}
		if err := r.wait(func() bool {
			t := r.tail().Load()
			if t > head || head-t > r.cap {
				return true // corrupt: let tryReserve report it
			}
			pos := head % r.cap
			want := need
			if rem := r.cap - pos; rem < need {
				want = rem + need
			}
			return r.cap-(head-t) >= want
		}); err != nil {
			return 0, err
		}
	}
}

// --- consumer side ---

// Recv drains the ring until the producer's end-of-stream marker (returns
// nil), a validation failure (ErrCorrupt etc.), handle returning an error,
// a local Interrupt/Close (ErrClosed), the producer's process dying without
// an end-of-stream marker (ErrPeerDead), or a SetDeadline bound expiring on
// one wait (ErrStalled). handle receives each record's full bytes —
// prefix included, aliasing the mapping — and must not retain them past its
// return. maxRecord <= 0 accepts records up to the ring capacity.
func (r *Ring) Recv(maxRecord int, handle func(rec []byte) error) error {
	for {
		rec, eof, err := r.next(maxRecord, true)
		if err != nil {
			return err
		}
		if eof {
			return nil
		}
		if rec != nil {
			if err := handle(rec); err != nil {
				return err
			}
			r.retire(len(rec))
		}
	}
}

// Drain is the non-blocking form of Recv for tests and the fuzz target: it
// consumes every currently published record and returns (eof, err) without
// ever waiting on the producer.
func (r *Ring) Drain(maxRecord int, handle func(rec []byte) error) (eof bool, err error) {
	for {
		rec, eof, err := r.next(maxRecord, false)
		if err != nil || eof {
			return eof, err
		}
		if rec == nil {
			return false, nil
		}
		if err := handle(rec); err != nil {
			return false, err
		}
		r.retire(len(rec))
	}
}

// next returns the next published record, skipping pad markers. With block
// set it waits for the producer; otherwise it returns (nil, false, nil) when
// the ring holds no complete record.
func (r *Ring) next(maxRecord int, block bool) (rec []byte, eof bool, err error) {
	max := uint64(maxRecord)
	if maxRecord <= 0 || max > r.cap {
		max = r.cap
	}
	if max < prefixBytes {
		// A cap below the prefix size would underflow max-prefixBytes and
		// disable the length check; clamp so only empty records pass it.
		max = prefixBytes
	}
	for {
		tail := r.tail().Load()
		head := r.head().Load()
		if head < tail || head-tail > r.cap {
			return nil, false, fmt.Errorf("%w: head %d vs tail %d (cap %d)", ErrCorrupt, head, tail, r.cap)
		}
		if head == tail {
			if !block {
				return nil, false, nil
			}
			if err := r.wait(func() bool { return r.head().Load() != tail }); err != nil {
				return nil, false, err
			}
			continue
		}
		pos := tail % r.cap
		rem := r.cap - pos
		if rem < prefixBytes {
			// Implicit pad: too short for a prefix; both sides skip it.
			if head-tail < rem {
				return nil, false, fmt.Errorf("%w: cursor inside implicit pad", ErrCorrupt)
			}
			r.tail().Store(tail + rem)
			continue
		}
		if head-tail < prefixBytes {
			return nil, false, fmt.Errorf("%w: partial prefix published", ErrCorrupt)
		}
		prefix := binary.LittleEndian.Uint32(r.data[pos:])
		switch prefix {
		case padMarker:
			if head-tail < rem {
				return nil, false, fmt.Errorf("%w: cursor inside pad record", ErrCorrupt)
			}
			r.tail().Store(tail + rem)
			continue
		case eofMarker:
			return nil, true, nil
		}
		total := uint64(prefix) + prefixBytes
		if uint64(prefix) > max-prefixBytes || total > rem {
			return nil, false, fmt.Errorf("%w: record length %d (contiguous %d, max %d)", ErrCorrupt, prefix, rem, max)
		}
		if head-tail < total {
			return nil, false, fmt.Errorf("%w: partial record published", ErrCorrupt)
		}
		return r.data[pos : pos+total], false, nil
	}
}

// retire advances the consumer cursor past the record just handled (plus any
// end-of-area pad the producer skipped before it).
func (r *Ring) retire(n int) {
	tail := r.tail().Load()
	pos := tail % r.cap
	if r.cap-pos < uint64(n) {
		// The record sat at offset 0; the remainder was padding.
		tail += r.cap - pos
	}
	r.tail().Store(tail + uint64(n))
}

// wait blocks until ready() holds: a spinBudget of Gosched-yielding polls,
// then parked parkSleep naps. It returns ErrClosed on a local
// Interrupt/Close, ErrPeerDead when the peer's liveness stamp stops probing
// alive, and ErrStalled when a SetDeadline bound expires — and before any of
// those, ready is rechecked one last time, so state the peer published
// before dying (an EOF marker, a final record) is never lost. The closed
// flag is checked in the spin phase too, so an Interrupt delivered between
// spinning and parking returns immediately instead of costing a nap, and
// the parked phase selects on the interrupt channel so a mid-nap Interrupt
// wakes it instantly.
func (r *Ring) wait(ready func() bool) error {
	for i := 0; i < spinBudget; i++ {
		if ready() {
			return nil
		}
		if r.closed.Load() {
			if ready() {
				return nil
			}
			return ErrClosed
		}
		runtime.Gosched()
	}
	var timer *time.Timer
	var parked time.Duration
	for parks := 0; ; {
		if ready() {
			return nil
		}
		if r.closed.Load() {
			if ready() {
				return nil
			}
			return ErrClosed
		}
		if timer == nil {
			timer = time.NewTimer(parkSleep)
			defer timer.Stop()
		} else {
			timer.Reset(parkSleep)
		}
		select {
		case <-r.intr:
			// Loop: the top-of-loop rechecks ready, then reports ErrClosed.
		case <-timer.C:
			parks++
			parked += parkSleep
			if parks%livenessEvery == 0 && !r.peerAlive() {
				if ready() {
					return nil
				}
				return ErrPeerDead
			}
			if r.deadline > 0 && parked >= r.deadline {
				if ready() {
					return nil
				}
				return ErrStalled
			}
		}
	}
}
