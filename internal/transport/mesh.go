package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tramlib/internal/transport/shmring"
	"tramlib/internal/wire"
)

// MeshConfig parameterizes one process's side of the peer data plane.
type MeshConfig struct {
	// Dir is the run directory holding the data sockets and ring segments
	// (the coordinator creates it and ships it in the setup message).
	Dir string
	// Self and Procs are this process's id and the run's process count.
	Self, Procs int
	// MaxFrameBytes caps data-plane frames; <= 0 selects the wire default.
	MaxFrameBytes int
	// RingBytes sizes each shm ring segment's data area; <= 0 selects the
	// shmring default.
	RingBytes int
	// WaitDeadline, when positive, bounds how long one send may block on
	// backpressure (a full ring's parked wait, a socket write): past it the
	// send fails with ErrStalled instead of waiting forever on a wedged
	// peer. 0 leaves sends unbounded. Keep it far above the runtime's flush
	// cadence — a busy-but-live peer must never trip it.
	WaitDeadline time.Duration
	// KindOf selects the link implementation for the pair {Self, peer}.
	// It must be symmetric across processes (both sides of a pair must
	// agree); nil selects Socket for every peer.
	KindOf func(peer int) Kind
	// Linked restricts which peer pairs get a link at all. nil links every
	// pair (the flat full mesh); two-level routing passes HierTopo.Linked so
	// only worker<->leader and leader<->leader pairs pay a socket, ring
	// segment, or TCP stream. Like KindOf it must be symmetric across
	// processes, and Peer(q) stays nil for unlinked q — callers route
	// through a relay instead.
	Linked func(peer int) bool
	// TCPListen is the bind spec for this process's TCP data listener, used
	// when any peer is TCP-kind; "" selects a loopback ephemeral port
	// ("127.0.0.1:0"). After Listen, Addr reports the resolved address; the
	// coordinator gathers every process's address and redistributes the full
	// slice as Connect's peerAddrs argument.
	TCPListen string
	// HelloDigest authenticates inbound TCP dials: each dialer ships it as
	// its PeerHello payload, and the accepting side closes connections whose
	// digest differs. Unlike the Unix listener's strict accept path, a bad
	// TCP hello never fails the mesh — the listener is network-reachable, so
	// strays, mismatched digests, and half-open connections are dropped and
	// the accept loop keeps going.
	HelloDigest string
	// HelloTimeout bounds how long an accepted TCP connection may take to
	// deliver a valid PeerHello before being dropped (a half-open connection
	// must not wedge establishment); <= 0 selects 10s.
	HelloTimeout time.Duration
	// KeepAlive sets the TCP keepalive probe period on TCP links so a dead
	// remote machine surfaces as ErrPeerDead; 0 keeps the stack default.
	KeepAlive time.Duration
	// LinkDelay and LinkJitter inject artificial one-way latency on TCP
	// links: each inbound frame waits LinkDelay plus a deterministic
	// pseudo-random slice of LinkJitter before dispatch (see linkDelay).
	LinkDelay, LinkJitter time.Duration
}

// helloTimeout returns the effective TCP hello deadline.
func (c MeshConfig) helloTimeout() time.Duration {
	if c.HelloTimeout > 0 {
		return c.HelloTimeout
	}
	return 10 * time.Second
}

func (c MeshConfig) kindOf(peer int) Kind {
	if c.KindOf == nil {
		return Socket
	}
	return c.KindOf(peer)
}

func (c MeshConfig) linked(peer int) bool {
	if peer == c.Self {
		return false
	}
	if c.Linked == nil {
		return true
	}
	return c.Linked(peer)
}

// Mesh is one process's set of peer links, built in the Listen/Connect
// phases the coordinator's handshake barriers order (see the package
// comment). After Connect, Peer(q) is non-nil for every linked q != Self
// (every q in a flat mesh) and each link's receive loop is running, feeding
// handle and reporting its exit on errc as a PeerExit naming the peer (Err
// nil for a clean peer close).
type Mesh struct {
	cfg    MeshConfig
	handle Handler
	errc   chan<- PeerExit

	// routes is the immutable peer table snapshot published at the end of
	// Connect: the peer set never changes after the establishment barrier,
	// so every post-barrier Peer lookup — one per batch send — reads it
	// lock-free instead of bouncing m.mu between worker goroutines.
	routes atomic.Pointer[[]*Link]

	mu    sync.Mutex
	peers []*Link
	ln    net.Listener
	tln   net.Listener
	// recvRings[q] is the created (inbound) ring from shm peer q, mapped
	// during Listen and bound into the link during Connect.
	recvRings  []*shmring.Ring
	inbound    int // socket peers expected to dial in
	tcpInbound int // TCP peers expected to dial in
	tcpSeen    int // TCP peers registered so far (under mu)
	acceptDone chan error
	tcpDone    chan error
	closed     bool
}

// NewMesh prepares a mesh; Listen and Connect do the work.
func NewMesh(cfg MeshConfig, handle Handler, errc chan<- PeerExit) *Mesh {
	if cfg.MaxFrameBytes <= 0 {
		cfg.MaxFrameBytes = wire.DefaultMaxFrameBytes
	}
	return &Mesh{
		cfg:        cfg,
		handle:     handle,
		errc:       errc,
		peers:      make([]*Link, cfg.Procs),
		recvRings:  make([]*shmring.Ring, cfg.Procs),
		acceptDone: make(chan error, 1),
		tcpDone:    make(chan error, 1),
	}
}

// Listen brings up the inbound side: the ring segment this process reads
// from each shm peer, the Unix data listener (if any peer is socket-kind),
// and the TCP data listener (if any peer is TCP-kind), each with a
// background accept loop for the higher-numbered peers that will dial in
// during their Connect phase. After Listen returns (and the coordinator's
// barrier confirms every process got here), remote peers may establish.
func (m *Mesh) Listen() error {
	needTCP := false
	for q := 0; q < m.cfg.Procs; q++ {
		if !m.cfg.linked(q) {
			continue
		}
		switch m.cfg.kindOf(q) {
		case Shm:
			r, err := shmring.Create(ringPath(m.cfg.Dir, q, m.cfg.Self), m.cfg.RingBytes)
			if err != nil {
				return fmt.Errorf("transport: create ring %d->%d: %w", q, m.cfg.Self, err)
			}
			m.recvRings[q] = r
		case Socket:
			if q > m.cfg.Self {
				m.inbound++
			}
		case TCP:
			needTCP = true
			if q > m.cfg.Self {
				m.tcpInbound++
			}
		default:
			return fmt.Errorf("transport: unknown kind %v for peer %d", m.cfg.kindOf(q), q)
		}
	}
	// The Unix listener exists only when a higher-numbered linked socket
	// peer will dial in: lower-numbered peers are dialed by us, so a
	// listener nobody dials is a wasted fd and socket file (the flat mesh's
	// last process, every non-accepting process of a hier link set).
	if m.inbound == 0 {
		m.acceptDone <- nil
	} else {
		ln, err := net.Listen("unix", sockPath(m.cfg.Dir, m.cfg.Self))
		if err != nil {
			return fmt.Errorf("transport: listen: %w", err)
		}
		m.ln = ln
		go m.acceptLoop()
	}
	if !needTCP {
		m.tcpDone <- nil
	} else {
		bind := m.cfg.TCPListen
		if bind == "" {
			bind = "127.0.0.1:0"
		}
		tln, err := net.Listen("tcp", bind)
		if err != nil {
			return fmt.Errorf("transport: tcp listen %s: %w", bind, err)
		}
		m.tln = tln
		if m.tcpInbound == 0 {
			m.tcpDone <- nil
		}
		go m.acceptTCPLoop()
	}
	return nil
}

// Addr returns the TCP data listener's resolved address, or "" when no peer
// is TCP-kind. Valid after Listen; each process reports it to the
// coordinator, which redistributes the full per-process slice for Connect.
func (m *Mesh) Addr() string {
	if m.tln == nil {
		return ""
	}
	return m.tln.Addr().String()
}

// acceptLoop accepts the expected inbound socket dials: read each dialer's
// hello synchronously (it is written immediately after connect), validate
// and register the peer, then hand the stream to a dedicated receive loop.
func (m *Mesh) acceptLoop() {
	for i := 0; i < m.inbound; i++ {
		c, err := m.ln.Accept()
		if err != nil {
			m.acceptDone <- fmt.Errorf("transport: accept: %w", err)
			return
		}
		rd := wire.NewReader(c, m.cfg.MaxFrameBytes)
		hello, err := rd.Next()
		if err != nil || hello.Kind != wire.KindControl || hello.Dest != PeerHello {
			c.Close()
			m.acceptDone <- fmt.Errorf("transport: bad peer hello (err=%v)", err)
			return
		}
		// The hello's Source is wire-controlled: validate it before it
		// becomes a slice index. Inbound dials come only from
		// higher-numbered, linked, socket-kind peers, each exactly once.
		q := int(hello.Source)
		if q <= m.cfg.Self || q >= m.cfg.Procs || !m.cfg.linked(q) || m.cfg.kindOf(q) != Socket {
			c.Close()
			m.acceptDone <- fmt.Errorf("transport: peer hello from invalid proc %d", hello.Source)
			return
		}
		p := newSocketPeer(q, c, rd, m.cfg.WaitDeadline)
		m.mu.Lock()
		dup := m.peers[q] != nil
		if !dup {
			m.peers[q] = m.link(p)
		}
		m.mu.Unlock()
		if dup {
			c.Close()
			m.acceptDone <- fmt.Errorf("transport: duplicate peer hello from proc %d", q)
			return
		}
		m.startRecv(q, p)
	}
	m.acceptDone <- nil
}

// acceptTCPLoop accepts inbound TCP dials until the listener closes.
// Unlike the Unix accept path, it is tolerant: the listener is reachable by
// anything that can route to the port, so a garbage hello, a digest
// mismatch, a duplicate, or a half-open connection is closed and the loop
// keeps accepting. Each hello is validated on its own goroutine under a
// read deadline, so one wedged dialer cannot stall the peers behind it; the
// coordinator's StartTimeout bounds overall establishment.
func (m *Mesh) acceptTCPLoop() {
	for {
		c, err := m.tln.Accept()
		if err != nil {
			// Listener closed: teardown after establishment (tcpDone already
			// holds nil, the send below hits the default) or a failure while
			// Connect still waits (the error lands in the buffer).
			select {
			case m.tcpDone <- fmt.Errorf("transport: tcp accept: %w", err):
			default:
			}
			return
		}
		go m.tcpHello(c)
	}
}

// tcpHello validates one accepted TCP connection's PeerHello — well-formed
// control frame, in-range higher-numbered TCP-kind source, matching config
// digest, not a duplicate — and registers the link, or closes the
// connection. The read deadline bounds half-open connections.
func (m *Mesh) tcpHello(c net.Conn) {
	_ = c.SetReadDeadline(time.Now().Add(m.cfg.helloTimeout()))
	rd := wire.NewReader(c, m.cfg.MaxFrameBytes)
	hello, err := rd.Next()
	if err != nil || hello.Kind != wire.KindControl || hello.Dest != PeerHello {
		c.Close()
		return
	}
	q := int(hello.Source)
	if q <= m.cfg.Self || q >= m.cfg.Procs || !m.cfg.linked(q) || m.cfg.kindOf(q) != TCP {
		c.Close()
		return
	}
	if string(hello.Payload) != m.cfg.HelloDigest {
		c.Close()
		return
	}
	_ = c.SetReadDeadline(time.Time{})
	p := newTCPPeer(m.cfg, q, c, rd)
	m.mu.Lock()
	if m.closed || m.peers[q] != nil {
		m.mu.Unlock()
		c.Close()
		return
	}
	m.peers[q] = m.link(p)
	m.tcpSeen++
	done := m.tcpSeen == m.tcpInbound
	m.mu.Unlock()
	m.startRecv(q, p)
	if done {
		m.tcpDone <- nil
	}
}

// Connect establishes the outbound side — dial every lower-numbered socket
// and TCP peer, open every shm peer's outbound ring — waits for the inbound
// dials to land, and leaves one receive loop running per peer. It must be
// called only after the coordinator's barrier confirms every process
// finished Listen. peerAddrs maps proc id -> TCP data address (the gathered
// Mesh.Addr values); it is ignored for non-TCP peers and may be nil in a
// mesh with no TCP links.
func (m *Mesh) Connect(peerAddrs []string) error {
	for q := 0; q < m.cfg.Procs; q++ {
		if !m.cfg.linked(q) {
			continue
		}
		switch m.cfg.kindOf(q) {
		case Shm:
			send, err := shmring.Open(ringPath(m.cfg.Dir, m.cfg.Self, q))
			if err != nil {
				return fmt.Errorf("transport: open ring %d->%d: %w", m.cfg.Self, q, err)
			}
			send.SetDeadline(m.cfg.WaitDeadline)
			p := &shmPeer{
				peer:     q,
				maxFrame: m.cfg.MaxFrameBytes,
				send:     send,
				recv:     m.recvRings[q],
			}
			m.mu.Lock()
			m.peers[q] = m.link(p)
			m.mu.Unlock()
			m.startRecv(q, p)
		case Socket:
			if q > m.cfg.Self {
				continue // it dials us; acceptLoop registers it
			}
			c, err := net.Dial("unix", sockPath(m.cfg.Dir, q))
			if err != nil {
				return fmt.Errorf("transport: dial peer %d: %w", q, err)
			}
			hello := wire.AppendControl(nil, uint32(m.cfg.Self), PeerHello, nil)
			if _, err := c.Write(hello); err != nil {
				c.Close()
				return fmt.Errorf("transport: peer hello %d: %w", q, err)
			}
			p := newSocketPeer(q, c, wire.NewReader(c, m.cfg.MaxFrameBytes), m.cfg.WaitDeadline)
			m.mu.Lock()
			m.peers[q] = m.link(p)
			m.mu.Unlock()
			m.startRecv(q, p)
		case TCP:
			if q > m.cfg.Self {
				continue // it dials us; acceptTCPLoop registers it
			}
			if q >= len(peerAddrs) || peerAddrs[q] == "" {
				return fmt.Errorf("transport: no address for tcp peer %d", q)
			}
			c, err := net.Dial("tcp", peerAddrs[q])
			if err != nil {
				return fmt.Errorf("transport: dial peer %d (%s): %w", q, peerAddrs[q], err)
			}
			p := newTCPPeer(m.cfg, q, c, wire.NewReader(c, m.cfg.MaxFrameBytes))
			hello := wire.AppendControl(nil, uint32(m.cfg.Self), PeerHello, []byte(m.cfg.HelloDigest))
			if _, err := c.Write(hello); err != nil {
				c.Close()
				return fmt.Errorf("transport: peer hello %d: %w", q, err)
			}
			m.mu.Lock()
			m.peers[q] = m.link(p)
			m.mu.Unlock()
			m.startRecv(q, p)
		}
	}
	// Every peer entry must be in place before the caller reports Ready:
	// once the coordinator broadcasts Start, any worker may send to any
	// process immediately.
	if err := <-m.acceptDone; err != nil {
		return err
	}
	if err := <-m.tcpDone; err != nil {
		return err
	}
	// The peer table is complete and immutable from here on; publish the
	// lock-free snapshot every post-barrier Peer lookup reads.
	m.mu.Lock()
	snap := make([]*Link, len(m.peers))
	copy(snap, m.peers)
	m.mu.Unlock()
	m.routes.Store(&snap)
	return nil
}

// link wraps a newly established peer transport in the handle Peer returns.
func (m *Mesh) link(p PeerTransport) *Link {
	return &Link{PeerTransport: p, self: uint32(m.cfg.Self)}
}

// startRecv runs one link's receive loop on its own goroutine, reporting
// the exit — tagged with the peer id, nil Err for a clean peer close — on
// the mesh's error channel.
func (m *Mesh) startRecv(q int, p PeerTransport) {
	go func() { m.errc <- PeerExit{Peer: q, Err: p.RecvLoop(m.handle)} }()
}

// Peer returns the established link to process q (nil for Self, unlinked
// pairs, or before the link exists). After Connect it reads the immutable
// snapshot — no lock on the per-batch send path; during establishment it
// falls back to the mutex.
func (m *Mesh) Peer(q int) *Link {
	if rs := m.routes.Load(); rs != nil {
		return (*rs)[q]
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peers[q]
}

// Close tears the mesh down: every link is closed (peers' receive loops see
// a clean end) and the listener released. Idempotent.
func (m *Mesh) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	for _, p := range m.peers {
		if p != nil {
			p.Close()
		}
	}
	for q, r := range m.recvRings {
		if r == nil {
			continue
		}
		if m.peers[q] == nil {
			// Never bound into a link: no receive loop owns it, release it.
			r.Close()
		} else {
			// The link's RecvLoop unmaps on return; just unblock it.
			r.Interrupt()
		}
	}
	if m.ln != nil {
		m.ln.Close()
	}
	if m.tln != nil {
		m.tln.Close()
	}
}
