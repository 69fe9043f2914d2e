package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tramlib/internal/faultinject"
	"tramlib/internal/wire"
)

// socketPeer is the stream link shared by the Unix-socket and TCP kinds:
// one bidirectional stream connection per unordered peer pair, established
// by the higher-numbered process dialing the lower-numbered one's listener.
// Encodes under a write lock into a reused scratch buffer, then writes the
// frame in one syscall; a frame already encoded (Batch.Raw) is written from
// the caller's slice as it is.
type socketPeer struct {
	peer      int
	conn      net.Conn
	rd        *wire.Reader
	writeWait time.Duration // per-write deadline; 0 = block indefinitely

	// writePoint, when non-empty, names the faultinject point fired before
	// each frame write (the TCP kind arms transport.tcp-write here).
	writePoint string
	// recvDelay, when non-nil, runs before each inbound frame is dispatched —
	// the TCP kind's injected-latency hook. It is called only from the
	// single receive goroutine.
	recvDelay func()

	mu     sync.Mutex
	buf    []byte
	closed atomic.Bool
}

func newSocketPeer(peer int, conn net.Conn, rd *wire.Reader, writeWait time.Duration) *socketPeer {
	return &socketPeer{peer: peer, conn: conn, rd: rd, writeWait: writeWait}
}

func (p *socketPeer) Send(b wire.Batch) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b.Raw != nil {
		return p.write(b.Raw)
	}
	p.buf = b.Append(p.buf[:0])
	return p.write(p.buf)
}

// write writes one frame to the connection, classifying the failure modes the
// run-level failure detector distinguishes: a broken pipe or connection
// reset is the peer process dying (ErrPeerDead); a write-deadline expiry is
// a live peer that stopped draining (ErrStalled); anything after our own
// Close is local teardown, left unclassified.
func (p *socketPeer) write(frame []byte) error {
	if p.writePoint != "" {
		switch faultinject.Fire(p.writePoint) {
		case faultinject.Drop:
			return nil // silently discard the frame
		case faultinject.Error:
			return fmt.Errorf("transport: peer %d write: injected fault", p.peer)
		}
	}
	if p.writeWait > 0 {
		_ = p.conn.SetWriteDeadline(time.Now().Add(p.writeWait))
	}
	_, err := p.conn.Write(frame)
	switch {
	case err == nil:
		return nil
	case p.closed.Load():
		return fmt.Errorf("transport: peer %d write after close: %w", p.peer, err)
	case errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNRESET):
		return fmt.Errorf("transport: peer %d write: %w (%v)", p.peer, ErrPeerDead, err)
	case os.IsTimeout(err):
		return fmt.Errorf("transport: peer %d write: %w (%v)", p.peer, ErrStalled, err)
	default:
		return fmt.Errorf("transport: peer %d write: %w", p.peer, err)
	}
}

func (p *socketPeer) RecvLoop(handle Handler) error {
	for {
		f, err := p.rd.Next()
		if err != nil {
			if err == io.EOF || p.closed.Load() {
				// A peer EOF, or our own Close tearing the (bidirectional)
				// connection out from under the reader: both are the run
				// ending, not a failure.
				return nil
			}
			return fmt.Errorf("transport: peer %d read: %w", p.peer, err)
		}
		if p.recvDelay != nil {
			p.recvDelay()
		}
		switch faultinject.Fire(faultinject.PointRecvFrame) {
		case faultinject.Drop:
			continue
		case faultinject.Error:
			return fmt.Errorf("transport: peer %d read: injected fault", p.peer)
		}
		if err := handle(f); err != nil {
			return err
		}
	}
}

func (p *socketPeer) Close() error {
	p.closed.Store(true)
	return p.conn.Close()
}
