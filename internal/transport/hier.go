package transport

import (
	"fmt"
	"sync"

	"tramlib/internal/wire"
)

// Two-level (node-leader) routing: instead of a full mesh of directed peer
// links — quadratic in file descriptors, ring segments, and flush scans —
// each node elects a leader (its lowest proc id), every non-leader process
// links only to its own leader, and leaders link to each other. A remote-
// bound batch hops worker -> local leader -> remote leader -> dest worker,
// and everything a relay holds for the same next hop travels as one
// wire.KindBundle frame, so each node pair exchanges one combined framed
// stream. Link count drops from O(P^2) to O(nodes^2) + O(procs/node).
//
// The pieces: HierTopo is the pure topology (leader election from the
// per-proc node map, the link predicate Mesh restricts itself to, next-hop
// resolution); Router is the per-process relay — one open bundle per next
// hop that frames are encoded straight into, and one goroutine that seals
// and ships the bundles over the established Mesh links.

// HierTopo is the two-level routing topology derived from a per-proc node
// map: which node each process lives on, which process leads each node, and
// therefore which pairs are linked and how a frame reaches its destination.
type HierTopo struct {
	nodes   []int       // proc -> node id
	leaders map[int]int // node id -> leader proc (lowest on the node)
}

// NewHierTopo derives the topology for procs processes from the per-proc
// node map (nil means every process shares one node). The leader of a node
// is its lowest-numbered process — deterministic, so every process and the
// coordinator elect identically with no extra protocol.
func NewHierTopo(nodes []int, procs int) HierTopo {
	t := HierTopo{nodes: make([]int, procs), leaders: make(map[int]int)}
	for p := 0; p < procs; p++ {
		n := 0
		if nodes != nil {
			n = nodes[p]
		}
		t.nodes[p] = n
		if _, ok := t.leaders[n]; !ok {
			t.leaders[n] = p // procs scan in order: first seen is lowest
		}
	}
	return t
}

// IsLeader reports whether process p leads its node.
func (t HierTopo) IsLeader(p int) bool { return t.leaders[t.nodes[p]] == p }

// Linked reports whether the pair {p, q} gets a direct link: same-node
// pairs where one side is the leader (the intra-node star), and leader
// pairs across nodes (the inter-node mesh). Symmetric by construction.
func (t HierTopo) Linked(p, q int) bool {
	if p == q {
		return false
	}
	if t.nodes[p] == t.nodes[q] {
		return t.IsLeader(p) || t.IsLeader(q)
	}
	return t.IsLeader(p) && t.IsLeader(q)
}

// NextHop returns the neighbor the frame from -> to leaves from on: the
// destination itself when directly linked, otherwise the leader that
// brings it closer (the local leader for a non-leader source, the
// destination node's leader for a leader source). from must differ from to.
func (t HierTopo) NextHop(from, to int) int {
	if t.Linked(from, to) {
		return to
	}
	if t.nodes[from] == t.nodes[to] {
		// Two non-leaders on one node route through their shared leader.
		return t.leaders[t.nodes[from]]
	}
	if t.IsLeader(from) {
		return t.leaders[t.nodes[to]]
	}
	return t.leaders[t.nodes[from]]
}

// RouterConfig parameterizes one process's relay.
type RouterConfig struct {
	// Self is this process's id; Topo the shared two-level topology.
	Self int
	Topo HierTopo
	// Mesh is the established (hier-restricted) link set frames ship over.
	Mesh *Mesh
	// BundleCap caps one bundle's encoded frame size toward a next hop —
	// at most the receiver's MaxFrameBytes, and for a shm hop at most the
	// ring's record limit. A single frame larger than the cap is shipped
	// unbundled (it satisfied the origin link's constraints already).
	BundleCap func(hop int) int
	// OnSendError reports an asynchronous relay send failure, once per next
	// hop; the dist layer forwards it to the same PeerExit channel receive
	// loops use, so failure attribution is identical for both directions.
	OnSendError func(hop int, err error)
}

// Bundle buffers. Each reserves bundleHeaderBytes at its front, and frames
// are encoded or copied straight after that reserve, so a relayed frame is
// written once per hop; the drain writes the KindBundle header over the
// reserve and the whole buffer goes to the link as it is. A bundle seals when
// the next frame would overflow its hop's cap or its buffer — a buffer is
// never grown, which would copy it again.
const (
	// bundleBufBytes is a fresh buffer's capacity (smaller where the hop's
	// cap is; larger for a frame that needs more).
	bundleBufBytes = 256 << 10
	// freeBytesPerHop bounds the buffer capacity one hop's free list keeps.
	freeBytesPerHop = 4 << 20
)

var bundleHeaderBytes = wire.BundleFrameBytes(0)

// Router is the per-process relay of two-level routing. Producers — the
// runtime's remote seam at the origin (SendBatch, which encodes the batch
// straight into its next hop's open bundle; Send for a frame already
// encoded), the bundle demux on receive loops (RelayFrame, RelayRaw) — add
// complete frames; one goroutine drains every hop's bundles in order and
// ships each, a bundle of one frame as that frame verbatim. Enqueueing never
// blocks, so a receive loop relaying a frame can never deadlock against a
// full link — the same unbounded-inbox discipline the runtime's worker
// queues use.
//
// The router never touches the runtime's cross-process counters: a relayed
// frame is counted once at its origin (send) and once at its final
// destination (receive), so frames in leader transit keep the global
// sent/recv balance open and Mattern-style quiescence cannot fire early.
type Router struct {
	cfg    RouterConfig
	hops   []*hopQueue // by proc id; nil where Self has no link
	linked []*hopQueue // the non-nil hops, which each drain visits

	wake chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// hopQueue is the relay's state toward one next hop. Producers fill open
// under mu; the drain goroutine takes the bundles under mu and ships them
// outside it.
type hopQueue struct {
	id    int
	limit int // BundleCap for this hop

	mu        sync.Mutex
	open      []byte   // nil, or the header reserve then n complete frames
	n         int      // frames in open
	sealed    []bundle // bundles closed before the drain took them, in order
	free      [][]byte // recycled buffers, freeBytes of capacity in all
	freeBytes int
	failed    bool // a send failed; later frames are dropped
}

// bundle is one sealed buffer of n frames bound for h.
type bundle struct {
	h   *hopQueue
	buf []byte
	n   int
}

// NewRouter starts the relay goroutine over an established mesh.
func NewRouter(cfg RouterConfig) *Router {
	r := newRouter(cfg)
	r.wg.Add(1)
	go r.loop()
	return r
}

// newRouter builds the router's hop queues without starting its drain.
func newRouter(cfg RouterConfig) *Router {
	r := &Router{
		cfg:  cfg,
		hops: make([]*hopQueue, len(cfg.Topo.nodes)),
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	for q := range r.hops {
		if !cfg.Topo.Linked(cfg.Self, q) {
			continue
		}
		h := &hopQueue{id: q, limit: wire.DefaultMaxFrameBytes}
		if cfg.BundleCap != nil {
			if c := cfg.BundleCap(q); c > 0 {
				h.limit = c
			}
		}
		r.hops[q] = h
		r.linked = append(r.linked, h)
	}
	return r
}

// Send routes one complete encoded frame (length prefix included) from Self
// toward its final destination process. raw stays owned by the caller.
func (r *Router) Send(destProc int, raw []byte) {
	r.SendBatch(destProc, wire.Batch{Raw: raw})
}

// SendBatch routes one batch from Self toward its final destination
// process, encoding it once, straight into its next hop's open bundle. The
// batch's storage is the caller's again when SendBatch returns.
func (r *Router) SendBatch(destProc int, b wire.Batch) {
	if h := r.reserve(r.cfg.Topo.NextHop(r.cfg.Self, destProc), b.FrameBytes()); h != nil {
		h.open = b.Append(h.open)
		r.commit(h)
	}
}

// RelayFrame forwards a decoded frame toward hop, re-encoding it verbatim
// straight into the hop's open bundle — the receive-loop path for frames
// that terminate elsewhere. f's payload stays owned by the caller (it
// aliases the link's receive buffer).
func (r *Router) RelayFrame(hop int, f wire.Frame) {
	if h := r.reserve(hop, f.FrameBytes()); h != nil {
		h.open = wire.AppendFrame(h.open, f)
		r.commit(h)
	}
}

// RelayRaw forwards one complete encoded frame toward hop verbatim. raw
// stays owned by the caller.
func (r *Router) RelayRaw(hop int, raw []byte) {
	if h := r.reserve(hop, len(raw)); h != nil {
		h.open = append(h.open, raw...)
		r.commit(h)
	}
}

// reserve returns hop's queue locked, with an open bundle that has room for
// a size-byte frame — the open bundle is sealed first if the frame would
// push it past the hop's cap or its buffer — or nil when the hop has failed
// and the frame is dropped. commit finishes the append.
func (r *Router) reserve(hop, size int) *hopQueue {
	h := r.hops[hop]
	if h == nil {
		panic(fmt.Sprintf("transport: relay from proc %d to unlinked proc %d", r.cfg.Self, hop))
	}
	h.mu.Lock()
	if h.failed {
		h.mu.Unlock()
		return nil
	}
	if h.open != nil && len(h.open)+size > min(h.limit, cap(h.open)) {
		h.seal()
	}
	if h.open == nil {
		h.open = h.buffer(bundleHeaderBytes + size)
	}
	return h
}

// commit counts the frame just appended to h's open bundle, unlocks h and
// wakes the drain.
func (r *Router) commit(h *hopQueue) {
	h.n++
	h.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// buffer returns an empty bundle buffer (the header reserved) with capacity
// for at least need bytes, recycled when the free list has one. h.mu is
// held.
func (h *hopQueue) buffer(need int) []byte {
	if k := len(h.free) - 1; k >= 0 {
		b := h.free[k]
		h.free[k] = nil
		h.free = h.free[:k]
		h.freeBytes -= cap(b)
		if cap(b) >= need {
			return b[:bundleHeaderBytes]
		}
	}
	return make([]byte, bundleHeaderBytes, max(min(bundleBufBytes, h.limit), need))
}

// seal queues the open bundle for the drain. h.mu is held.
func (h *hopQueue) seal() {
	h.sealed = append(h.sealed, bundle{h: h, buf: h.open, n: h.n})
	h.open, h.n = nil, 0
}

// Close stops the relay goroutine. Pending frames are dropped — at a clean
// finish every bundle is empty by construction (an undelivered frame keeps
// the quiescence counters unbalanced), and on an abort delivery is moot.
func (r *Router) Close() {
	select {
	case <-r.done:
	default:
		close(r.done)
	}
	r.wg.Wait()
}

func (r *Router) loop() {
	defer r.wg.Done()
	var out []bundle // reused across drains
	for {
		select {
		case <-r.wake:
		case <-r.done:
			return
		}
		out = r.drain(out)
		select {
		case <-r.done:
			return
		default:
		}
	}
}

// drain ships every bundle queued so far and recycles the buffers. out is
// scratch storage, returned for the next drain.
func (r *Router) drain(out []bundle) []bundle {
	out = r.take(out[:0])
	r.ship(out)
	r.recycle(out)
	clear(out)
	return out
}

// take seals every hop's open bundle and moves all sealed bundles to out,
// each hop's in the order they filled.
func (r *Router) take(out []bundle) []bundle {
	for _, h := range r.linked {
		h.mu.Lock()
		if h.open != nil {
			h.seal()
		}
		out = append(out, h.sealed...)
		clear(h.sealed)
		h.sealed = h.sealed[:0]
		h.mu.Unlock()
	}
	return out
}

// ship sends the drained bundles: one frame verbatim, several under a
// KindBundle header written over the reserve. A send failure marks the hop
// failed, reports it once, and drops the hop's remaining bundles; other hops
// keep flowing.
func (r *Router) ship(out []bundle) {
	for _, b := range out {
		if b.h.failed { // written only by this goroutine
			continue
		}
		raw := b.buf[bundleHeaderBytes:]
		if b.n > 1 {
			wire.AppendBundleHeader(b.buf[:0], uint32(r.cfg.Self), uint32(b.h.id), b.n, len(raw))
			raw = b.buf
		}
		p := r.cfg.Mesh.Peer(b.h.id)
		if p == nil {
			r.fail(b.h, ErrPeerDead)
			continue
		}
		if err := p.Send(wire.Batch{Raw: raw}); err != nil {
			r.fail(b.h, err)
		}
	}
}

func (r *Router) fail(h *hopQueue, err error) {
	h.mu.Lock()
	h.failed = true
	h.mu.Unlock()
	if r.cfg.OnSendError != nil {
		r.cfg.OnSendError(h.id, err)
	}
}

// recycle returns shipped buffers to their hops' free lists, up to
// freeBytesPerHop each.
func (r *Router) recycle(out []bundle) {
	for _, b := range out {
		h := b.h
		h.mu.Lock()
		if h.freeBytes+cap(b.buf) <= freeBytesPerHop {
			h.free = append(h.free, b.buf)
			h.freeBytes += cap(b.buf)
		}
		h.mu.Unlock()
	}
}
