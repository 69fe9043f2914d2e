package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tramlib/internal/rt"
	"tramlib/internal/serve"
	"tramlib/internal/shmem"
	"tramlib/internal/stats"
	"tramlib/internal/transport"
	"tramlib/internal/transport/shmring"
	"tramlib/internal/wire"
	"tramlib/tram"
)

// Layer probes time one exported layer primitive in isolation, at the
// workload's buffer capacity g and producers per process. Each probe does
// fixed work, three times, and reports the median.

type probeSpec struct {
	g         int // aggregation buffer capacity, items
	producers int // workers sharing one process
	scale     float64
}

// probeRounds is how often each probe repeats its fixed work.
const probeRounds = 3

func (ps probeSpec) n(v int) int { return max(int(float64(v)*ps.scale), 1) }

// probe is one layer probe; a round returns the metrics it measured.
type probe struct {
	name  string
	round func() (map[string]float64, error)
}

// one adapts a probe measuring a single metric.
func one(metric string, fn func() (float64, error)) func() (map[string]float64, error) {
	return func() (map[string]float64, error) {
		v, err := fn()
		return map[string]float64{metric: v}, err
	}
}

// runProbes runs every layer probe probeRounds times, each probe inside its
// own span, and returns the median of each metric they measure. dir holds
// the probes' socket and ring files.
func runProbes(ps probeSpec, dir string, tr *tracer, parent int64) (map[string]float64, error) {
	probes := []probe{
		{"probe.shmem.sp_push", one("shmem.sp_push_ns", ps.spPush)},
		{"probe.shmem.mp_push", one("shmem.mp_push_ns", ps.mpPush)},
		{"probe.wire.items_encode", one("wire.items_encode_ns_per_item", ps.itemsEncode)},
		{"probe.wire.items_decode", one("wire.items_decode_ns_per_item", ps.itemsDecode)},
		{"probe.wire.bundle_encode", one("wire.bundle_encode_ns_per_frame", ps.bundleEncode)},
		{"probe.transport.shmring", func() (map[string]float64, error) {
			ns, gbps, err := ps.shmRing(dir)
			return map[string]float64{"transport.shmring_ns_per_frame": ns, "transport.shmring_gbps": gbps}, err
		}},
		{"probe.transport.socket", one("transport.socket_ns_per_frame", func() (float64, error) { return ps.socketMesh(dir) })},
		{"probe.transport.router", func() (map[string]float64, error) {
			ns, fpb, err := ps.router(dir)
			return map[string]float64{"transport.router_ns_per_frame": ns, "transport.router_frames_per_bundle": fpb}, err
		}},
		{"probe.serve", ps.serve},
	}
	vals := make(map[string][]float64)
	for _, p := range probes {
		var err error
		tr.time(parent, p.name, func(int64) {
			for i := 0; i < probeRounds && err == nil; i++ {
				var m map[string]float64
				m, err = p.round()
				for k, v := range m {
					vals[k] = append(vals[k], v)
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out, nil
}

func perOp(d time.Duration, ops int) float64 { return float64(d.Nanoseconds()) / float64(ops) }

// recycler hands a sealed batch's storage back to the buffer, as the
// runtime's pools do, so the probes time pushes and not the allocator.
type recycler struct{ pool sync.Pool }

func (r *recycler) alloc(n int) []rt.Item {
	if s, ok := r.pool.Get().(*[]rt.Item); ok && cap(*s) >= n {
		return (*s)[:n]
	}
	return make([]rt.Item, n)
}

func (r *recycler) put(items []rt.Item) { r.pool.Put(&items) }

// spPush: ns per SPBuffer.Push, seals included.
func (ps probeSpec) spPush() (float64, error) {
	n := ps.n(1 << 22)
	var rc recycler
	buf := shmem.NewSPBuffer(ps.g, func(b shmem.Batch[rt.Item]) { rc.put(b.Items) })
	buf.SetAlloc(rc.alloc)
	start := time.Now()
	for i := 0; i < n; i++ {
		buf.Push(rt.Item{Val: uint64(i)})
	}
	buf.Flush()
	return perOp(time.Since(start), n), nil
}

// mpPush: ns per MPBuffer.Push with ps.producers goroutines pushing at once
// (wall time over all pushes).
func (ps probeSpec) mpPush() (float64, error) {
	n := ps.n(1 << 21)
	var rc recycler
	var got atomic.Int64
	buf := shmem.NewMPBuffer(ps.g, func(b shmem.Batch[rt.Item]) {
		got.Add(int64(len(b.Items)))
		rc.put(b.Items)
	})
	buf.SetAlloc(rc.alloc)
	per := n / ps.producers
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < ps.producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				buf.Push(rt.Item{Val: uint64(i)})
			}
		}()
	}
	wg.Wait()
	buf.Flush()
	d := time.Since(start)
	if got.Load() != int64(per*ps.producers) {
		return 0, fmt.Errorf("MPBuffer emitted %d items, pushed %d", got.Load(), per*ps.producers)
	}
	return perOp(d, per*ps.producers), nil
}

func probeItems(g int) []wire.Item {
	items := make([]wire.Item, g)
	for i := range items {
		items[i] = wire.Item{Dest: uint32(i % 4), Val: uint64(i) * 0x9e3779b97f4a7c15}
	}
	return items
}

// itemsEncode: ns per item of wire.AppendItems on a full buffer.
func (ps probeSpec) itemsEncode() (float64, error) {
	items := probeItems(ps.g)
	frames := max(ps.n(1<<22)/ps.g, 1)
	buf := make([]byte, 0, wire.ItemsFrameBytes(ps.g))
	start := time.Now()
	for i := 0; i < frames; i++ {
		buf = wire.AppendItems(buf[:0], 0, 1, items, true)
	}
	d := time.Since(start)
	if len(buf) != wire.ItemsFrameBytes(ps.g) {
		return 0, fmt.Errorf("encoded %d bytes, want %d", len(buf), wire.ItemsFrameBytes(ps.g))
	}
	return perOp(d, frames*ps.g), nil
}

// itemsDecode: ns per item of wire.Decode plus Frame.EachItem.
func (ps probeSpec) itemsDecode() (float64, error) {
	enc := wire.AppendItems(nil, 0, 1, probeItems(ps.g), true)
	frames := max(ps.n(1<<22)/ps.g, 1)
	var sum uint64
	start := time.Now()
	for i := 0; i < frames; i++ {
		f, _, err := wire.Decode(enc, wire.DefaultMaxFrameBytes)
		if err != nil {
			return 0, err
		}
		f.EachItem(func(_ uint32, v uint64) { sum += v })
	}
	d := time.Since(start)
	var want uint64
	for _, it := range probeItems(ps.g) {
		want += it.Val
	}
	if sum != want*uint64(frames) {
		return 0, errors.New("decoded values differ from the encoded ones")
	}
	return perOp(d, frames*ps.g), nil
}

// bundleFrames is how many full frames one probe bundle carries.
const bundleFrames = 4

// bundleEncode: ns per inner frame of wire.AppendBundle over full frames.
func (ps probeSpec) bundleEncode() (float64, error) {
	one := wire.AppendItems(nil, 0, 1, probeItems(ps.g), true)
	var inner []byte
	for i := 0; i < bundleFrames; i++ {
		inner = append(inner, one...)
	}
	bundles := max(ps.n(1<<22)/(ps.g*bundleFrames), 1)
	buf := make([]byte, 0, wire.BundleFrameBytes(len(inner)))
	start := time.Now()
	for i := 0; i < bundles; i++ {
		buf = wire.AppendBundle(buf[:0], 0, 1, bundleFrames, inner)
	}
	return perOp(time.Since(start), bundles*bundleFrames), nil
}

// shmRing: ns per full frame through an mmap'd ring between two goroutines,
// and the payload rate in Gbit/s.
func (ps probeSpec) shmRing(dir string) (nsPerFrame, gbps float64, err error) {
	path := filepath.Join(dir, "probe.ring")
	rcv, err := shmring.Create(path, 0)
	if err != nil {
		return 0, 0, err
	}
	defer os.Remove(path)
	defer rcv.Close()
	snd, err := shmring.Open(path)
	if err != nil {
		return 0, 0, err
	}
	items := probeItems(ps.g)
	total := wire.ItemsFrameBytes(ps.g)
	frames := max(ps.n(1<<24)/total, 16)
	var got, bytes int
	recvErr := make(chan error, 1)
	start := time.Now()
	go func() {
		recvErr <- rcv.Recv(0, func(rec []byte) error {
			got++
			bytes += len(rec)
			return nil
		})
	}()
	for i := 0; i < frames; i++ {
		if err := snd.Write(total, func(dst []byte) []byte { return wire.AppendItems(dst, 0, 1, items, true) }); err != nil {
			snd.CloseSend()
			<-recvErr
			return 0, 0, err
		}
	}
	if err := snd.CloseSend(); err != nil {
		<-recvErr
		return 0, 0, err
	}
	if err := <-recvErr; err != nil {
		return 0, 0, err
	}
	d := time.Since(start)
	if got != frames {
		return 0, 0, fmt.Errorf("ring delivered %d frames, sent %d", got, frames)
	}
	return perOp(d, frames), float64(bytes) * 8 / float64(d.Nanoseconds()), nil
}

// probeMesh is one simulated process of an in-process mesh.
type probeMesh struct {
	m      *transport.Mesh
	errc   chan transport.PeerExit
	router *transport.Router
}

// buildMesh stands up procs in-process mesh members over Unix sockets with
// the coordinator's Listen-then-Connect ordering. topo, when non-nil,
// restricts the links to the two-level routes and gives every member a
// Router; handle builds each member's frame handler. Everything a handler
// reads is in place before Listen starts a receive loop.
func buildMesh(dir string, procs int, topo *transport.HierTopo, handle func(p int) transport.Handler) ([]*probeMesh, error) {
	ms := make([]*probeMesh, procs)
	for p := range ms {
		pm := &probeMesh{errc: make(chan transport.PeerExit, procs+1)}
		cfg := transport.MeshConfig{Dir: dir, Self: p, Procs: procs}
		if topo != nil {
			cfg.Linked = func(q int) bool { return topo.Linked(p, q) }
		}
		pm.m = transport.NewMesh(cfg, handle(p), pm.errc)
		if topo != nil {
			pm.router = transport.NewRouter(transport.RouterConfig{Self: p, Topo: *topo, Mesh: pm.m})
		}
		ms[p] = pm
	}
	for _, pm := range ms {
		if err := pm.m.Listen(); err != nil {
			closeMesh(ms)
			return nil, err
		}
	}
	addrs := make([]string, procs)
	for p, pm := range ms {
		addrs[p] = pm.m.Addr()
	}
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for p, pm := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[p] = pm.m.Connect(addrs)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		closeMesh(ms)
		return nil, err
	}
	return ms, nil
}

func closeMesh(ms []*probeMesh) {
	for _, pm := range ms {
		if pm.router != nil {
			pm.router.Close()
		}
	}
	for _, pm := range ms {
		pm.m.Close()
	}
}

// counter counts frames and envelopes arriving at one mesh member and
// signals once want frames are in.
type counter struct {
	frames, envelopes atomic.Int64
	want              int64
	done              chan struct{}
}

func (c *counter) add(frames int64) {
	c.envelopes.Add(1)
	if c.frames.Add(frames) == c.want {
		close(c.done)
	}
}

func (c *counter) wait(timeout time.Duration) error {
	select {
	case <-c.done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("%d of %d frames arrived", c.frames.Load(), c.want)
	}
}

// socketMesh: ns per full frame sent over a 2-peer Unix-socket mesh link,
// until the receiver has decoded every frame.
func (ps probeSpec) socketMesh(dir string) (float64, error) {
	d, err := os.MkdirTemp(dir, "sock-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(d)
	frames := max(ps.n(1<<23)/wire.ItemsFrameBytes(ps.g), 16)
	c := &counter{want: int64(frames), done: make(chan struct{})}
	ms, err := buildMesh(d, 2, nil, func(p int) transport.Handler {
		return func(f wire.Frame) error {
			if p == 1 {
				c.add(1)
			}
			return nil
		}
	})
	if err != nil {
		return 0, err
	}
	defer closeMesh(ms)
	items := probeItems(ps.g)
	link := ms[0].m.Peer(1)
	start := time.Now()
	for i := 0; i < frames; i++ {
		if err := link.SendItems(1, items, true); err != nil {
			return 0, err
		}
	}
	if err := c.wait(30 * time.Second); err != nil {
		return 0, err
	}
	return perOp(time.Since(start), frames), nil
}

// router: ns per full frame relayed worker → leader → leader on a 3-process
// two-node topology (procs 0 and 1 on node 0, proc 2 on node 1), and the
// frames each envelope arriving at the destination carried.
func (ps probeSpec) router(dir string) (nsPerFrame, framesPerBundle float64, err error) {
	d, err := os.MkdirTemp(dir, "hier-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(d)
	topo := transport.NewHierTopo([]int{0, 0, 1}, 3)
	frames := max(ps.n(1<<23)/wire.ItemsFrameBytes(ps.g), 16)
	c := &counter{want: int64(frames), done: make(chan struct{})}
	var ms []*probeMesh
	// A frame not addressed to its receiver is relayed toward its Dest; a
	// bundle is opened first. Proc 2 only counts what reaches it. ms is
	// assigned before any frame is sent, and the routers are built before
	// the mesh listens.
	dispatch := func(p int, f wire.Frame, raw []byte) {
		if int(f.Dest) == p {
			return
		}
		if raw == nil {
			raw = wire.AppendFrame(nil, f)
		}
		ms[p].router.RelayRaw(topo.NextHop(p, int(f.Dest)), raw)
	}
	ms, err = buildMesh(d, 3, &topo, func(p int) transport.Handler {
		return func(f wire.Frame) error {
			if f.Kind != wire.KindBundle {
				if p == 2 {
					c.add(1)
				}
				dispatch(p, f, nil)
				return nil
			}
			if p == 2 {
				c.add(int64(f.Count))
			}
			return f.EachFrame(func(raw []byte, in wire.Frame) error {
				dispatch(p, in, raw)
				return nil
			})
		}
	})
	if err != nil {
		return 0, 0, err
	}
	defer closeMesh(ms)
	raw := wire.AppendItems(nil, 1, 2, probeItems(ps.g), true)
	start := time.Now()
	for i := 0; i < frames; i++ {
		ms[1].router.Send(2, raw)
	}
	if err := c.wait(30 * time.Second); err != nil {
		return 0, 0, err
	}
	return perOp(time.Since(start), frames), float64(c.frames.Load()) / float64(c.envelopes.Load()), nil
}

// The serve probe's client: at most serveWindow events unacked, at most
// serveBatch events in one frame.
const (
	serveWindow = 1 << 16
	serveBatch  = 256
)

// serve: the serve frontend alone, over the Real backend in this process.
// One client sends a fixed unpaced stream; the probe reports the client's
// ack latency (send of a frame to the ack covering it) and the share of the
// sending time spent waiting for the ack window.
func (ps probeSpec) serve() (map[string]float64, error) {
	cfg := tram.DefaultConfig(tram.SMP(1, 1, ps.producers), tram.WPs)
	cfg.BufferItems = ps.g
	cfg.FlushDeadline = 200 * time.Microsecond
	cfg.Serve.Listen = "127.0.0.1:0"
	var got atomic.Int64
	srv, err := tram.U64().Serve(tram.Real, cfg, tram.App[uint64]{
		Deliver: func(tram.Ctx, uint64) { got.Add(1) },
	})
	if err != nil {
		return nil, err
	}
	hist := stats.NewAtomicHist()
	c, err := serve.Dial(srv.Addr(), serve.ClientConfig{Window: serveWindow, Batch: serveBatch, LatencyHist: hist})
	if err != nil {
		_, _ = srv.Drain() // the dial error is the one to report
		return nil, err
	}
	n := ps.n(1 << 18)
	var blocked time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		wouldBlock := c.Sent()-c.Acked() >= serveWindow
		t := time.Now()
		if err = c.Send(uint32(i%ps.producers), uint64(i)); err != nil {
			break
		}
		if wouldBlock {
			blocked += time.Since(t)
		}
	}
	if err == nil {
		err = c.Flush()
	}
	if err == nil {
		_, err = c.WaitAcked(int64(n))
	}
	sending := time.Since(start)
	// Every event is acked, so the client may go before the drain; the
	// frontend then need not wait out a connection that sends nothing.
	c.Close()
	if _, derr := srv.Drain(); err == nil {
		err = derr
	}
	if err != nil {
		return nil, err
	}
	if got.Load() != int64(n) {
		return nil, fmt.Errorf("delivered %d events, sent %d", got.Load(), n)
	}
	h := stats.FromState(hist.State())
	return map[string]float64{
		"serve.ack_us.p50":      float64(h.Quantile(0.50)) / 1e3,
		"serve.ack_us.p99":      float64(h.Quantile(0.99)) / 1e3,
		"serve.send_block_frac": blocked.Seconds() / sending.Seconds(),
	}, nil
}
