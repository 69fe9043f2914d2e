package transport

import (
	"errors"
	"fmt"
	"sync"

	"tramlib/internal/faultinject"
	"tramlib/internal/transport/shmring"
	"tramlib/internal/wire"
)

// shmPeer is the shared-memory link: a pair of directed mmap'd SPSC rings
// (send: self -> peer, recv: peer -> self). A send computes the frame's
// exact size, reserves that many contiguous bytes in the ring, and encodes
// the wire frame directly into the shared mapping — the receive side parses
// it in place, so the bytes are written once and read once with no
// intermediate copies or syscalls.
//
// The send mutex serializes this process's worker and progress goroutines,
// which is what makes the process a single producer for the SPSC ring —
// the same role the write lock plays for the socket link.
type shmPeer struct {
	peer     int
	maxFrame int
	mu       sync.Mutex // serializes producers on the send ring
	send     *shmring.Ring
	recv     *shmring.Ring
}

// Send publishes one frame into the send ring, encoded in place, mapping
// the ring's failure modes onto the transport-level sentinels (a dead
// consumer process, a stalled parked wait).
func (p *shmPeer) Send(b wire.Batch) error {
	if faultinject.Fire(faultinject.PointRingWrite) == faultinject.Error {
		// Tear the ring down under the writer, as a racing teardown (or a
		// corrupted segment unmapped by the kernel) would.
		p.send.Interrupt()
	}
	p.mu.Lock()
	err := p.send.Write(b.FrameBytes(), b.Append)
	p.mu.Unlock()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, shmring.ErrPeerDead):
		return fmt.Errorf("transport: peer %d ring write: %w (%v)", p.peer, ErrPeerDead, err)
	case errors.Is(err, shmring.ErrStalled):
		return fmt.Errorf("transport: peer %d ring write: %w (%v)", p.peer, ErrStalled, err)
	default:
		return fmt.Errorf("transport: peer %d ring write: %w", p.peer, err)
	}
}

func (p *shmPeer) RecvLoop(handle Handler) error {
	// The receive goroutine owns the recv ring's mapping: unmap only after
	// Recv has returned (Close, on other goroutines, just interrupts).
	defer p.recv.Close()
	err := p.recv.Recv(p.maxFrame+4, func(rec []byte) error {
		switch faultinject.Fire(faultinject.PointRecvFrame) {
		case faultinject.Drop:
			return nil
		case faultinject.Error:
			return fmt.Errorf("transport: peer %d ring read: injected fault", p.peer)
		}
		f, n, derr := wire.Decode(rec, p.maxFrame)
		if derr != nil {
			return fmt.Errorf("transport: ring frame: %w", derr)
		}
		if n != len(rec) {
			return fmt.Errorf("transport: ring record %d bytes, frame consumed %d", len(rec), n)
		}
		return handle(f)
	})
	switch {
	case err == nil:
		return nil
	case errors.Is(err, shmring.ErrClosed):
		// Local teardown interrupted a parked read: the run is over; report
		// it as a clean end like a socket close would.
		return nil
	case errors.Is(err, shmring.ErrPeerDead):
		// The producer process died without publishing end-of-stream.
		return fmt.Errorf("transport: peer %d ring read: %w (%v)", p.peer, ErrPeerDead, err)
	}
	return err
}

func (p *shmPeer) Close() error {
	// Interrupt before taking the lock: a sender parked inside a full-ring
	// Write holds p.mu and only the ring's closed flag can release it (the
	// socket analogue is conn.Close unblocking a blocked writer).
	p.send.Interrupt()
	p.mu.Lock()
	err := p.send.CloseSend() // publishes EOF: the peer's RecvLoop ends cleanly
	p.mu.Unlock()
	p.recv.Interrupt() // unblock our parked RecvLoop; it unmaps on return
	return err
}
