package transport

import (
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
// resolution); Router is the per-process relay — an unbounded FIFO drained
// by one goroutine that groups frames by next hop, bundles them, and ships
// them over the established Mesh links.

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

// Procs returns the process count the topology was built for.
func (t HierTopo) Procs() int { return len(t.nodes) }

// NodeOf returns the node process p lives on.
func (t HierTopo) NodeOf(p int) int { return t.nodes[p] }

// Leader returns the leader process of node n.
func (t HierTopo) Leader(n int) int { return t.leaders[n] }

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

// Links returns the number of directed links process p owns — what the
// mesh establishes instead of Procs-1. Summed over p it is
// 2*(nodes choose 2) pairs of leader links plus, per node, one star link
// per non-leader process.
func (t HierTopo) Links(p int) int {
	n := 0
	for q := range t.nodes {
		if t.Linked(p, q) {
			n++
		}
	}
	return n
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

// Router is the per-process relay of two-level routing. Producers — the
// runtime's remote seam at the origin (SendBatch, which encodes the batch
// straight into the queue; Send for a frame already encoded), the bundle
// demux on receive loops (RelayRaw) — enqueue complete frames; one goroutine
// drains the queue, groups frames by next hop, and ships each group as a
// KindBundle (or a lone frame verbatim). Enqueueing never blocks, so a
// receive loop relaying a frame can never deadlock against a full link —
// the same unbounded-inbox discipline the runtime's worker queues use.
//
// The router never touches the runtime's cross-process counters: a relayed
// frame is counted once at its origin (send) and once at its final
// destination (receive), so frames in leader transit keep the global
// sent/recv balance open and Mattern-style quiescence cannot fire early.
type Router struct {
	cfg RouterConfig

	mu    sync.Mutex
	queue []relayItem

	wake chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	pool sync.Pool // *[]byte scratch, recycled after each flush
}

type relayItem struct {
	hop int
	buf *[]byte // pooled: the frame's encoding
}

// NewRouter starts the relay goroutine over an established mesh.
func NewRouter(cfg RouterConfig) *Router {
	r := &Router{
		cfg:  cfg,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	r.pool.New = func() any { b := make([]byte, 0, 4096); return &b }
	r.wg.Add(1)
	go r.loop()
	return r
}

// Send routes one complete encoded frame (length prefix included) from Self
// toward its final destination process. raw stays owned by the caller.
func (r *Router) Send(destProc int, raw []byte) {
	r.SendBatch(destProc, wire.Batch{Raw: raw})
}

// SendBatch routes one batch from Self toward its final destination
// process, encoding it once, straight into the relay's pooled buffer. The
// batch's storage is the caller's again when SendBatch returns.
func (r *Router) SendBatch(destProc int, b wire.Batch) {
	r.enqueue(r.cfg.Topo.NextHop(r.cfg.Self, destProc), b)
}

// RelayRaw forwards a frame (or pre-grouped raw bytes) toward hop verbatim
// — the receive-loop path for frames unbundled at a relay. raw stays owned
// by the caller (it aliases the link's receive buffer).
func (r *Router) RelayRaw(hop int, raw []byte) {
	r.enqueue(hop, wire.Batch{Raw: raw})
}

func (r *Router) enqueue(hop int, b wire.Batch) {
	bp := r.pool.Get().(*[]byte)
	*bp = b.Append((*bp)[:0])
	r.mu.Lock()
	r.queue = append(r.queue, relayItem{hop: hop, buf: bp})
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// Close stops the relay goroutine. Pending frames are dropped — at a clean
// finish the queue is empty by construction (an undelivered frame keeps the
// quiescence counters unbalanced), and on an abort delivery is moot.
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
	failed := make(map[int]bool)
	for {
		r.mu.Lock()
		batch := r.queue
		r.queue = nil
		r.mu.Unlock()
		if len(batch) == 0 {
			select {
			case <-r.wake:
				continue
			case <-r.done:
				return
			}
		}
		r.flush(batch, failed)
		for _, it := range batch {
			r.pool.Put(it.buf)
		}
		select {
		case <-r.done:
			return
		default:
		}
	}
}

// openBundle accumulates frames bound for one next hop between emits.
type openBundle struct {
	inner []byte
	count int
}

// flush ships one drained batch: frames are grouped by next hop in arrival
// order, each group emitted as one bundle per cap-sized chunk (a lone frame
// goes verbatim — no envelope to pay). A send failure marks the hop dead,
// reports it once, and drops that hop's remaining frames; other hops keep
// flowing.
func (r *Router) flush(batch []relayItem, failed map[int]bool) {
	open := make(map[int]*openBundle)
	var order []int
	for _, it := range batch {
		if failed[it.hop] {
			continue
		}
		raw := *it.buf
		capBytes := r.capFor(it.hop)
		capPayload := capBytes - wire.BundleFrameBytes(0)
		b := open[it.hop]
		if b == nil {
			b = &openBundle{}
			open[it.hop] = b
			order = append(order, it.hop)
		}
		if b.count > 0 && len(b.inner)+len(raw) > capPayload {
			r.emit(it.hop, b, failed)
		}
		if len(raw) > capPayload {
			// Oversized for an envelope: flush what's open (order!) and
			// ship it alone.
			if b.count > 0 {
				r.emit(it.hop, b, failed)
			}
			if !failed[it.hop] {
				r.sendRaw(it.hop, raw, failed)
			}
			continue
		}
		b.inner = append(b.inner, raw...)
		b.count++
	}
	for _, hop := range order {
		if b := open[hop]; b.count > 0 && !failed[hop] {
			r.emit(hop, b, failed)
		}
	}
}

// emit ships and resets one open bundle: a single frame verbatim, several
// wrapped in one KindBundle addressed to the next hop.
func (r *Router) emit(hop int, b *openBundle, failed map[int]bool) {
	if b.count == 1 {
		r.sendRaw(hop, b.inner, failed)
	} else {
		bp := r.pool.Get().(*[]byte)
		*bp = wire.AppendBundle((*bp)[:0], uint32(r.cfg.Self), uint32(hop), b.count, b.inner)
		r.sendRaw(hop, *bp, failed)
		r.pool.Put(bp)
	}
	b.inner = b.inner[:0]
	b.count = 0
}

func (r *Router) sendRaw(hop int, raw []byte, failed map[int]bool) {
	p := r.cfg.Mesh.Peer(hop)
	if p == nil {
		r.fail(hop, ErrPeerDead, failed)
		return
	}
	if err := p.Send(wire.Batch{Raw: raw}); err != nil {
		r.fail(hop, err, failed)
	}
}

func (r *Router) fail(hop int, err error, failed map[int]bool) {
	if failed[hop] {
		return
	}
	failed[hop] = true
	if r.cfg.OnSendError != nil {
		r.cfg.OnSendError(hop, err)
	}
}

func (r *Router) capFor(hop int) int {
	if r.cfg.BundleCap != nil {
		if c := r.cfg.BundleCap(hop); c > 0 {
			return c
		}
	}
	return wire.DefaultMaxFrameBytes
}
