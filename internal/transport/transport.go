// Package transport is the pluggable peer data plane of the multi-process
// (Dist) backend: it owns how one worker process's aggregated batches reach
// another worker process, behind one PeerTransport interface the runtime
// glue (internal/dist) routes through. A link moves frames and nothing
// else: it sends one wire.Batch at a time — the runtime's sealed batch, or
// a relay's pre-encoded frame — and hands decoded inbound frames to a
// Handler. internal/dist keeps the control plane (coordinator handshake,
// quiescence probes, reports); everything peer-data — dialing, accepting,
// frame encode/send, the per-peer receive loop, the node-leader relay,
// teardown — lives here.
//
// Three implementations exist, selected per peer pair by the mesh's node
// grouping:
//
//   - Socket: wire-framed batches on a full mesh of Unix-domain stream
//     sockets. Every batch pays an encode into a scratch buffer, a write
//     syscall, a kernel socket-buffer copy, and a read syscall; a frame
//     already encoded (Batch.Raw, such as a relay's bundle) is written from
//     the caller's buffer without re-encoding. This is the "framed slow
//     path" the paper's same-node argument is measured against.
//
//   - Shm: an mmap-backed SPSC byte ring per *directed* peer pair
//     (internal/transport/shmring). The sender encodes the identical wire
//     frame directly into the shared mapping and the receiver parses it in
//     place — no syscalls, no kernel copies, cache-line-padded cursors, and
//     a bounded-spin + park wakeup. This is the genuine shared-memory fast
//     path for processes that share a physical node.
//
//   - TCP: the Socket link's framing and coalesced writes over a TCP stream,
//     for peers on different machines. TCP_NODELAY keeps fine-grained
//     latency-sensitive flushes from being Nagle-delayed, a configurable
//     keepalive period makes a dead remote peer surface as ErrPeerDead (the
//     same classification the run-level failure detector already consumes),
//     and because a TCP listener is network-reachable — unlike a Unix socket
//     inside a private run directory — the PeerHello carries the run's
//     config digest, which the accepting side validates before admitting a
//     link. TCP links can also inject deterministic per-frame latency
//     (MeshConfig.LinkDelay/LinkJitter, tc-netem style but in process) so
//     the paper's latency-sensitivity story is measurable on one box.
//
// All implementations speak the exact same wire encoding, so a frame is a
// frame regardless of how it traveled: the receive dispatch, the validation
// rules, and the four-counter quiescence accounting upstream are transport-
// agnostic, and a run mixing kinds (some peers same-node, some not) is just
// a mesh whose links differ.
//
// # Mesh establishment
//
// Mesh builds one process's side of the data plane in the two phases the
// coordinator's handshake already has:
//
//	Listen   create the inbound endpoints: the Unix-socket listener (if any
//	         peer is socket-kind), the TCP data listener (if any peer is
//	         TCP-kind; its resolved address is Mesh.Addr, which the
//	         coordinator gathers and redistributes), and the ring segments
//	         this process reads (one per shm peer). After Listen, remote
//	         peers may establish.
//	Connect  establish the outbound side — dial lower-numbered socket and
//	         TCP peers, open the ring segments this process writes — wait
//	         for inbound socket and TCP peers to finish dialing in, and
//	         start one receive loop per peer.
//
// The coordinator's Listening/Connect/Ready barriers order the phases
// across processes: every Listen completes before any Connect begins, so an
// Open never races a Create and a dial never races a listener.
package transport

import (
	"errors"
	"fmt"
	"path/filepath"

	"tramlib/internal/wire"
)

// Errors classifying send/receive failures across both link kinds.
var (
	// ErrPeerDead marks a failure whose proximate cause is the peer process
	// being gone: a broken pipe or connection reset on a socket, a failed
	// liveness probe on a ring.
	ErrPeerDead = errors.New("transport: peer process died")
	// ErrStalled marks a send that exceeded the mesh's WaitDeadline while
	// blocked on backpressure — the peer is (apparently) alive but not
	// draining.
	ErrStalled = errors.New("transport: peer stopped draining")
)

// PeerExit reports one link receive loop's exit on the mesh's error channel:
// which peer's loop ended, and how (nil for a clean peer close).
type PeerExit struct {
	Peer int
	Err  error
}

// Kind selects a peer-link implementation.
type Kind uint8

const (
	// Socket frames batches over a Unix-domain stream socket.
	Socket Kind = iota
	// Shm carries wire-encoded batches over mmap'd SPSC rings.
	Shm
	// TCP frames batches over a TCP stream (multi-node capable), with
	// TCP_NODELAY, configurable keepalive, and a digest-validated hello.
	TCP
)

// String names the kind for diagnostics and CLI flags.
func (k Kind) String() string {
	switch k {
	case Socket:
		return "socket"
	case Shm:
		return "shm"
	case TCP:
		return "tcp"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// PeerHello is the one control opcode on peer data links: the dialing or
// ring-opening process identifies itself (frame Source = its proc id)
// before any data frame. On TCP links — whose listeners are reachable
// beyond the run directory — the hello payload additionally carries the
// run's config digest, validated by the accepting side.
const PeerHello uint32 = 0x70656572 // "peer"

// Handler consumes one decoded inbound data frame. It runs on the link's
// receive goroutine; the frame's payload aliases the link's receive buffer
// (or shared mapping) and must not be retained past the call.
type Handler func(f wire.Frame) error

// PeerTransport is one established data link between the local worker
// process and one peer process. It moves frames and nothing else: what a
// frame carries and where it terminates is decided above it.
type PeerTransport interface {
	// Send encodes one frame — a sealed batch, or a relay's pre-encoded
	// frame (Batch.Raw) — onto the link synchronously: the batch's storage
	// is the caller's again when Send returns. It may block on backpressure
	// (a full socket buffer, a full ring) and is safe for concurrent use. A
	// failure returns an error (never a panic): the caller owns failing the
	// run cleanly, and errors.Is(err, ErrPeerDead) distinguishes "the peer
	// process is gone" from local teardown and protocol faults so the
	// runtime layer above can attribute the failure.
	Send(b wire.Batch) error
	// RecvLoop decodes inbound frames into handle until the peer closes the
	// link (returns nil), the link fails, or handle errors. One call per
	// link, on a dedicated goroutine (Mesh.Connect starts it).
	RecvLoop(handle Handler) error
	// Close tears the link down; the peer's RecvLoop observes a clean end
	// where the implementation can signal one.
	Close() error
}

// Link is an established peer link as Mesh.Peer hands it out: the link
// kind's PeerTransport, stamped with the local process as the source of
// the batches its shorthand sends build.
type Link struct {
	PeerTransport
	self uint32
}

// SendItems ships an items batch (process-addressed (dest worker, value)
// pairs) from the local process — shorthand for Send.
func (l *Link) SendItems(destProc uint32, items []wire.Item, full bool) error {
	return l.Send(wire.Batch{Kind: wire.KindItems, Full: full, Source: l.self, Dest: destProc, Items: items})
}

// sockPath returns process p's data-socket path inside the run directory.
func sockPath(dir string, p int) string {
	return filepath.Join(dir, fmt.Sprintf("p%d.sock", p))
}

// ringPath returns the segment path of the directed ring src -> dst inside
// the run directory. The reader (dst) creates it; the writer (src) opens it.
func ringPath(dir string, src, dst int) string {
	return filepath.Join(dir, fmt.Sprintf("r%d-%d.ring", src, dst))
}
