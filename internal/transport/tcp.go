package transport

import (
	"net"
	"time"

	"tramlib/internal/faultinject"
	"tramlib/internal/wire"
)

// newTCPPeer wraps an established TCP connection in the shared stream link:
// the socketPeer machinery (coalesced writes under one lock into a scratch
// encoder, read-side frame validation via wire.Reader, ErrPeerDead /
// ErrStalled classification) carries over unchanged, with the TCP-specific
// knobs layered on — TCP_NODELAY + keepalive tuning, the transport.tcp-write
// fault point, and the injected-latency hook on the receive path.
func newTCPPeer(cfg MeshConfig, peer int, c net.Conn, rd *wire.Reader) *socketPeer {
	tuneTCP(c, cfg.KeepAlive)
	p := newSocketPeer(peer, c, rd, cfg.WaitDeadline)
	p.writePoint = faultinject.PointTCPWrite
	p.recvDelay = linkDelay(cfg.LinkDelay, cfg.LinkJitter, cfg.Self, peer)
	return p
}

// tuneTCP applies the latency-sensitivity socket options: Nagle off (an
// aggregation library does its own batching — a flushed batch must hit the
// wire now, not wait for an ACK), and keepalive probes at the configured
// period so a dead remote machine eventually surfaces as a reset/EPIPE the
// write path classifies as ErrPeerDead. A zero period keeps the Go runtime
// default (~15s).
func tuneTCP(c net.Conn, keepAlive time.Duration) {
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return
	}
	_ = tc.SetNoDelay(true)
	_ = tc.SetKeepAlive(true)
	if keepAlive > 0 {
		_ = tc.SetKeepAlivePeriod(keepAlive)
	}
}

// linkDelay builds the per-frame injected-latency hook for one directed TCP
// link, or nil when no latency is configured. Each inbound frame waits delay
// plus a pseudo-random slice of jitter before dispatch — an in-process
// tc-netem stand-in that models one-way link latency without holding the
// sender's write lock. The jitter sequence is a per-link xorshift stream
// seeded from the (self, peer) pair, so a fixed-seed run injects the same
// latency schedule every time.
func linkDelay(delay, jitter time.Duration, self, peer int) func() {
	if delay <= 0 && jitter <= 0 {
		return nil
	}
	state := (uint64(self)+1)<<32 | (uint64(uint32(peer)) + 1)
	state = state*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	return func() {
		d := delay
		if jitter > 0 {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			d += time.Duration(state % uint64(jitter))
		}
		time.Sleep(d)
	}
}
