package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tramlib/internal/dist"
	"tramlib/internal/stats"
	"tramlib/internal/wire"
)

// ErrDrained marks a Send attempted after the server announced its drain:
// the connection's final ack is in, nothing further will be admitted.
var ErrDrained = errors.New("serve: server drained")

// Client is one tramserve connection: it streams events, tracks the server's
// cumulative acks, and bounds its own unacked window (Send blocks when
// Window events are outstanding — the client half of the end-to-end
// backpressure chain). Not safe for concurrent Send; every other method is
// safe from any goroutine.
type Client struct {
	conn net.Conn

	// Send-side buffers (owned by the sending goroutine).
	buf     []wire.Item
	wbuf    []byte
	batch   int
	latHist *stats.AtomicHist

	mu      sync.Mutex
	cond    *sync.Cond
	sent    int64 // events handed to the connection
	acked   int64 // server's cumulative admitted count
	sentAt  []sendMark
	window  int64
	drained bool
	err     error // terminal state: set once, then cond broadcast
}

// sendMark pairs a cumulative send count with its wall-clock instant, for
// ack-latency measurement: when the ack counter passes Seq, the events up to
// it waited now-At.
type sendMark struct {
	Seq int64
	At  time.Time
}

// ClientConfig parameterizes Dial.
type ClientConfig struct {
	// Window bounds unacked events in flight (0: DefaultClientWindow).
	Window int
	// Batch is the per-frame event count (0: DefaultClientBatch).
	Batch int
	// LatencyHist, if non-nil, observes per-batch ack latencies (nanoseconds
	// from a batch's send to the ack covering it).
	LatencyHist *stats.AtomicHist
}

// Client flow-control defaults.
const (
	DefaultClientWindow = 1 << 16
	DefaultClientBatch  = 256
)

// Dial connects to a tramserve frontend.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	window := cfg.Window
	if window <= 0 {
		window = DefaultClientWindow
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = DefaultClientBatch
	}
	c := &Client{
		conn:    conn,
		batch:   batch,
		window:  int64(window),
		latHist: cfg.LatencyHist,
	}
	c.cond = sync.NewCond(&c.mu)
	go c.readLoop()
	return c, nil
}

// readLoop consumes server control frames until the connection ends.
func (c *Client) readLoop() {
	rd := wire.NewReader(c.conn, wire.DefaultMaxFrameBytes)
	for {
		fr, err := rd.Next()
		if err != nil {
			c.fail(fmt.Errorf("serve: connection lost: %w", err))
			return
		}
		if fr.Kind != wire.KindControl {
			continue
		}
		switch fr.Dest {
		case OpAck, OpDrained:
			var doc ackDoc
			if err := json.Unmarshal(fr.Payload, &doc); err != nil {
				c.fail(fmt.Errorf("serve: bad ack frame: %w", err))
				return
			}
			c.noteAck(doc.N, fr.Dest == OpDrained)
			if fr.Dest == OpDrained {
				c.closeWrite()
				return
			}
		case OpFail:
			var doc failDoc
			if err := json.Unmarshal(fr.Payload, &doc); err != nil {
				c.fail(fmt.Errorf("serve: bad failure frame: %w", err))
				return
			}
			c.fail(&dist.PeerFailureError{
				Proc:  doc.Proc,
				Phase: doc.Phase,
				Err:   fmt.Errorf("%w: %s", dist.ErrPeerDied, doc.Msg),
			})
			c.closeWrite()
			return
		}
	}
}

// noteAck advances the ack counter, retires latency marks, and wakes blocked
// senders.
func (c *Client) noteAck(n int64, final bool) {
	now := time.Now()
	c.mu.Lock()
	if n > c.acked {
		c.acked = n
	}
	if final {
		c.drained = true
	}
	if c.latHist != nil {
		for len(c.sentAt) > 0 && c.sentAt[0].Seq <= c.acked {
			c.latHist.Observe(now.Sub(c.sentAt[0].At).Nanoseconds())
			c.sentAt = c.sentAt[1:]
		}
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// closeWrite half-closes the connection once the server's final frame
// (OpDrained or OpFail) has arrived: the server, which reads on until the
// client is done so that its close is clean, sees EOF at once instead of
// waiting out its read deadline. A failed half-close is ignored: the server
// then just falls back to that deadline.
func (c *Client) closeWrite() {
	if hc, ok := c.conn.(interface{ CloseWrite() error }); ok {
		_ = hc.CloseWrite()
	}
}

// fail records err as the terminal error unless the connection already
// ended — failed, or drained, which is terminal and clean — wakes everything
// blocked on the client, and returns the terminal outcome: the recorded
// error, or ErrDrained. A write after the final frame's half-close fails,
// but the final frame's outcome is what the caller must see; the failed
// write carried only events the server never acked.
func (c *Client) fail(err error) error {
	c.mu.Lock()
	if c.err == nil && !c.drained {
		c.err = err
	}
	err = c.err
	if err == nil {
		err = ErrDrained
	}
	c.mu.Unlock()
	c.cond.Broadcast()
	return err
}

// Send queues one event for the given global worker id, transmitting a frame
// whenever the batch fills. It blocks while the unacked window is full and
// returns the terminal error if the connection failed.
func (c *Client) Send(dest uint32, val uint64) error {
	c.mu.Lock()
	for c.err == nil && !c.drained && c.sent-c.acked >= c.window {
		c.cond.Wait()
	}
	err := c.err
	if err == nil && c.drained {
		err = ErrDrained
	}
	if err == nil {
		c.sent++
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	c.buf = append(c.buf, wire.Item{Dest: dest, Val: val})
	if len(c.buf) >= c.batch {
		return c.Flush()
	}
	return nil
}

// Flush transmits any batched events immediately.
func (c *Client) Flush() error {
	if len(c.buf) == 0 {
		return nil
	}
	c.wbuf = wire.AppendItems(c.wbuf[:0], 0, 0, c.buf, false)
	c.buf = c.buf[:0]
	if c.latHist != nil {
		c.mu.Lock()
		c.sentAt = append(c.sentAt, sendMark{Seq: c.sent, At: time.Now()})
		c.mu.Unlock()
	}
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return c.fail(fmt.Errorf("serve: send: %w", err))
	}
	return nil
}

// Sent returns the number of events handed to the connection so far.
func (c *Client) Sent() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent
}

// Acked returns the server's cumulative admitted count for this connection.
func (c *Client) Acked() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acked
}

// Err returns the terminal error, nil while the connection is healthy.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// WaitAcked blocks until the server has acked at least n events, the
// connection fails, or the server drains (whichever first). On a clean drain
// with fewer than n acks it returns the drained count and no error.
func (c *Client) WaitAcked(n int64) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.err == nil && !c.drained && c.acked < n {
		c.cond.Wait()
	}
	return c.acked, c.err
}

// WaitDrained blocks until the server sends its final OpDrained ack (clean
// drain) or the connection fails, returning the final cumulative admitted
// count. Every event counted is guaranteed delivered by the server's drain.
func (c *Client) WaitDrained() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.err == nil && !c.drained {
		c.cond.Wait()
	}
	return c.acked, c.err
}

// Close flushes and closes the connection.
func (c *Client) Close() error {
	c.Flush()
	return c.conn.Close()
}
