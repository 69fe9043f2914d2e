package transport

import (
	"bytes"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tramlib/internal/transport/shmring"
	"tramlib/internal/wire"
)

// Procs returns the process count the topology was built for.
func (t HierTopo) Procs() int { return len(t.nodes) }

// NodeOf returns the node process p lives on.
func (t HierTopo) NodeOf(p int) int { return t.nodes[p] }

// Leader returns the leader process of node n.
func (t HierTopo) Leader(n int) int { return t.leaders[n] }

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

func TestHierTopoElection(t *testing.T) {
	// Two nodes of three processes each: leaders are the lowest proc ids.
	topo := NewHierTopo([]int{0, 0, 0, 1, 1, 1}, 6)
	if topo.Leader(0) != 0 || topo.Leader(1) != 3 {
		t.Fatalf("leaders: node0=%d node1=%d, want 0 and 3", topo.Leader(0), topo.Leader(1))
	}
	for p, want := range []bool{true, false, false, true, false, false} {
		if topo.IsLeader(p) != want {
			t.Fatalf("IsLeader(%d) = %v, want %v", p, topo.IsLeader(p), want)
		}
	}
	// A nil node map is one node led by proc 0.
	one := NewHierTopo(nil, 4)
	if !one.IsLeader(0) || one.IsLeader(3) || one.NodeOf(3) != 0 {
		t.Fatalf("nil node map: leader0=%v leader3=%v node3=%d", one.IsLeader(0), one.IsLeader(3), one.NodeOf(3))
	}
	// Interleaved node ids still elect the lowest proc per node.
	inter := NewHierTopo([]int{1, 0, 1, 0}, 4)
	if inter.Leader(1) != 0 || inter.Leader(0) != 1 {
		t.Fatalf("interleaved leaders: node1=%d node0=%d", inter.Leader(1), inter.Leader(0))
	}
}

func TestHierTopoLinkedAndNextHop(t *testing.T) {
	topos := []HierTopo{
		NewHierTopo([]int{0, 0, 0, 1, 1, 1}, 6),
		NewHierTopo([]int{0, 0, 1, 1, 2, 2, 2}, 7),
		NewHierTopo(nil, 5),
		NewHierTopo([]int{0, 1, 2}, 3), // one proc per node: pure leader mesh
	}
	for ti, topo := range topos {
		P := topo.Procs()
		for p := 0; p < P; p++ {
			for q := 0; q < P; q++ {
				if topo.Linked(p, q) != topo.Linked(q, p) {
					t.Fatalf("topo %d: Linked(%d,%d) asymmetric", ti, p, q)
				}
				if p == q {
					continue
				}
				// Every route must reach its destination over linked hops,
				// within the worker -> leader -> leader -> worker bound.
				at := p
				for hops := 0; at != q; hops++ {
					if hops >= 3 {
						t.Fatalf("topo %d: route %d->%d did not terminate", ti, p, q)
					}
					next := topo.NextHop(at, q)
					if !topo.Linked(at, next) {
						t.Fatalf("topo %d: route %d->%d uses unlinked hop %d->%d", ti, p, q, at, next)
					}
					at = next
				}
			}
		}
	}
}

func TestHierTopoLinkCountFormula(t *testing.T) {
	// Total directed links must be 2*(nodes choose 2) for the leader mesh
	// plus 2 per non-leader process for the intra-node stars — the
	// O(nodes^2) + O(procs/node) claim, against the flat mesh's P*(P-1).
	nodes := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}
	P := len(nodes)
	topo := NewHierTopo(nodes, P)
	total := 0
	for p := 0; p < P; p++ {
		total += topo.Links(p)
	}
	nNodes, nonLeaders := 3, P-3
	want := nNodes*(nNodes-1) + 2*nonLeaders
	if total != want {
		t.Fatalf("total directed links %d, want %d", total, want)
	}
	if flat := P * (P - 1); total >= flat {
		t.Fatalf("hier links %d not below flat mesh's %d", total, flat)
	}
}

// hierHarness is one simulated process of a routed mesh: the link-restricted
// mesh, its router, and a recorder of frames that reached their final
// destination here. The demux handler mirrors internal/dist's: unpack
// bundles, deliver frames addressed to self, relay the rest toward their
// destination (Dest is the destination proc in this harness's worker space).
type hierHarness struct {
	self   int
	topo   HierTopo
	m      *Mesh
	router *Router
	errc   chan PeerExit

	mu     sync.Mutex
	frames []wire.Frame
}

func (h *hierHarness) handle(f wire.Frame) error {
	if f.Kind == wire.KindBundle {
		return f.EachFrame(func(_ []byte, in wire.Frame) error {
			h.dispatch(in)
			return nil
		})
	}
	h.dispatch(f)
	return nil
}

func (h *hierHarness) dispatch(f wire.Frame) {
	if int(f.Dest) != h.self {
		h.router.RelayFrame(h.topo.NextHop(h.self, int(f.Dest)), f)
		return
	}
	f.Payload = append([]byte(nil), f.Payload...)
	h.mu.Lock()
	h.frames = append(h.frames, f)
	h.mu.Unlock()
}

func (h *hierHarness) waitFrames(t *testing.T, want int) []wire.Frame {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		h.mu.Lock()
		n := len(h.frames)
		frames := append([]wire.Frame(nil), h.frames...)
		h.mu.Unlock()
		if n >= want {
			return frames
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %d of %d frames", n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// buildHier stands up the routed mesh with the coordinator's barrier
// discipline. Every handler and router is fully wired before Listen starts
// any goroutine, so no state is mutated once receive loops run.
func buildHier(t *testing.T, topo HierTopo, kindOf func(self, peer int) Kind) []*hierHarness {
	t.Helper()
	dir := t.TempDir()
	procs := topo.Procs()
	hs := make([]*hierHarness, procs)
	for p := 0; p < procs; p++ {
		p := p
		h := &hierHarness{self: p, topo: topo, errc: make(chan PeerExit, procs+1)}
		h.m = NewMesh(MeshConfig{
			Dir:    dir,
			Self:   p,
			Procs:  procs,
			KindOf: func(q int) Kind { return kindOf(p, q) },
			Linked: func(q int) bool { return topo.Linked(p, q) },
		}, h.handle, h.errc)
		h.router = NewRouter(RouterConfig{
			Self: p,
			Topo: topo,
			Mesh: h.m,
			OnSendError: func(hop int, err error) {
				h.errc <- PeerExit{Peer: hop, Err: err}
			},
		})
		hs[p] = h
	}
	for _, h := range hs {
		if err := h.m.Listen(); err != nil {
			t.Fatalf("Listen: %v", err)
		}
	}
	addrs := make([]string, procs)
	for p, h := range hs {
		addrs[p] = h.m.Addr()
	}
	var wg sync.WaitGroup
	errs := make(chan error, procs)
	for _, h := range hs {
		h := h
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- h.m.Connect(addrs)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("Connect: %v", err)
		}
	}
	t.Cleanup(func() {
		for _, h := range hs {
			h.router.Close()
		}
		for _, h := range hs {
			h.m.Close()
		}
	})
	return hs
}

// TestHierRouterDelivery sends a payload frame across every ordered pair of
// a 2-node x 3-proc topology through the routed mesh — worker->leader,
// leader->leader, and leader->worker hops, bundling included — and checks
// every frame lands at its destination with its original endpoints intact.
func TestHierRouterDelivery(t *testing.T) {
	nodes := []int{0, 0, 0, 1, 1, 1}
	topo := NewHierTopo(nodes, len(nodes))
	for _, tc := range []struct {
		name   string
		kindOf func(self, peer int) Kind
	}{
		{"shm-socket", func(self, peer int) Kind {
			if nodes[self] == nodes[peer] {
				return Shm
			}
			return Socket
		}},
		{"shm-tcp", func(self, peer int) Kind {
			if nodes[self] == nodes[peer] {
				return Shm
			}
			return TCP
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hs := buildHier(t, topo, tc.kindOf)
			P := topo.Procs()
			for src, h := range hs {
				for dst := 0; dst < P; dst++ {
					if dst == src {
						continue
					}
					raw := wire.AppendPayloads(nil, uint32(src), uint32(dst),
						[]uint64{uint64(src), uint64(dst), 7}, true)
					h.router.Send(dst, raw)
				}
			}
			for dst, h := range hs {
				frames := h.waitFrames(t, P-1)
				bySrc := map[uint32]bool{}
				for _, f := range frames {
					if f.Kind != wire.KindPayloads || int(f.Dest) != dst {
						t.Fatalf("proc %d: stray frame %+v", dst, f.Header)
					}
					var buf [3]uint64
					got := f.Payloads(buf[:])
					if got[0] != uint64(f.Source) || got[1] != uint64(dst) || got[2] != 7 {
						t.Fatalf("proc %d: payloads %v from %d", dst, got, f.Source)
					}
					bySrc[f.Source] = true
				}
				if len(bySrc) != P-1 {
					t.Fatalf("proc %d: frames from %d sources, want %d", dst, len(bySrc), P-1)
				}
			}
		})
	}
}

// TestHierMeshLinkCount pins the tentpole's resource claim: a link-restricted
// mesh creates exactly the O(nodes^2) + O(procs/node) link set — per-process
// established links match HierTopo.Links, and the run directory holds one
// ring segment per directed linked shm pair and one data socket per process
// that accepts inbound socket dials, far below the flat mesh's quadratic
// footprint.
func TestHierMeshLinkCount(t *testing.T) {
	nodes := []int{0, 0, 0, 1, 1, 1}
	topo := NewHierTopo(nodes, len(nodes))
	kindOf := func(self, peer int) Kind {
		if nodes[self] == nodes[peer] {
			return Shm
		}
		return Socket
	}
	hs := buildHier(t, topo, kindOf)

	for p, h := range hs {
		links := 0
		for q := 0; q < topo.Procs(); q++ {
			if h.m.Peer(q) != nil {
				links++
				if !topo.Linked(p, q) {
					t.Fatalf("proc %d holds a link to unlinked peer %d", p, q)
				}
			}
		}
		if links != topo.Links(p) {
			t.Fatalf("proc %d established %d links, HierTopo.Links says %d", p, links, topo.Links(p))
		}
	}

	dir := hs[0].m.cfg.Dir
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	rings, socks := 0, 0
	for _, e := range entries {
		names = append(names, e.Name())
		switch filepath.Ext(e.Name()) {
		case ".ring":
			rings++
		case ".sock":
			socks++
		}
	}
	// Directed shm links: both directions of each same-node worker<->leader
	// pair. A flat mesh of this shape would create 12 ring segments for the
	// same-node pairs alone plus 18 node-crossing socket streams.
	wantRings := 0
	for p := range nodes {
		for q := range nodes {
			if p != q && topo.Linked(p, q) && kindOf(p, q) == Shm {
				wantRings++
			}
		}
	}
	if rings != wantRings {
		t.Fatalf("%d ring segments in %s, want %d", rings, dir, wantRings)
	}
	// Socket listeners exist only for processes expecting inbound socket
	// dials: with leaders {0, 3}, only proc 0 (dialed by leader 3).
	if socks != 1 || !strings.Contains(strings.Join(names, ","), "p0.sock") {
		t.Fatalf("socket files %d (%v), want exactly p0.sock", socks, names)
	}
}

// linkFrames returns the frames tm recorded so far and forgets them.
func (tm *testMesh) linkFrames() []wire.Frame {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	fs := tm.frames
	tm.frames = nil
	return fs
}

// unbundle splits the link frames a router sent into the frames it relayed,
// each re-encoded, and the envelope shape: per link frame, the number of
// frames a bundle carried, or 0 for a frame sent verbatim.
func unbundle(t *testing.T, link []wire.Frame) (raws [][]byte, shape []int) {
	t.Helper()
	for _, f := range link {
		if f.Kind != wire.KindBundle {
			raws = append(raws, wire.AppendFrame(nil, f))
			shape = append(shape, 0)
			continue
		}
		if err := f.EachFrame(func(raw []byte, _ wire.Frame) error {
			raws = append(raws, raw)
			return nil
		}); err != nil {
			t.Fatalf("bundle: %v", err)
		}
		shape = append(shape, int(f.Count))
	}
	return raws, shape
}

// TestHierRouterBundling pins how one drain packs a hop's frames: frames
// bound for one hop coalesce into one envelope, in order; a cap splits them
// into bundles that fit it (a lone frame left over goes verbatim); a cap
// below one frame sends every frame verbatim; and a frame over the cap ships
// alone between the bundles around it.
func TestHierRouterBundling(t *testing.T) {
	tms := buildMeshes(t, 2, func(self, peer int) Kind { return Socket })
	t.Cleanup(func() {
		for _, tm := range tms {
			tm.m.Close()
		}
	})
	small := make([][]byte, 5)
	for i := range small {
		small[i] = wire.AppendPayloads(nil, 0, 1, []uint64{uint64(i), uint64(i), uint64(i)}, false)
	}
	big := wire.AppendPayloads(nil, 0, 1, make([]uint64, 64), false)
	twoSmall := wire.BundleFrameBytes(2 * len(small[0]))
	for _, tc := range []struct {
		name   string
		cap    int
		frames [][]byte
		shape  []int
	}{
		{"uncapped", 0, small, []int{5}},
		{"mid cap", twoSmall, small, []int{2, 2, 0}},
		{"cap below a frame", 1, small, []int{0, 0, 0, 0, 0}},
		{"oversized frame", twoSmall, [][]byte{small[0], small[1], big, small[2], small[3]}, []int{2, 0, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Not started: the test drains, so every frame is queued first.
			r := newRouter(RouterConfig{Self: 0, Topo: NewHierTopo(nil, 2), Mesh: tms[0].m,
				BundleCap: func(int) int { return tc.cap }})
			for _, raw := range tc.frames {
				r.Send(1, raw)
			}
			r.drain(nil)
			tms[1].waitFrames(t, len(tc.shape))
			raws, shape := unbundle(t, tms[1].linkFrames())
			if !slices.Equal(shape, tc.shape) {
				t.Fatalf("envelopes %v, want %v", shape, tc.shape)
			}
			if !slices.EqualFunc(raws, tc.frames, bytes.Equal) {
				t.Fatal("relayed frames differ from the frames sent, or arrived out of order")
			}
		})
	}
}

// TestHierRouterRandomized drives a running router from one producer per
// next hop, concurrently: random frame sizes (some beyond a fresh bundle
// buffer), every entry point, a random cap per hop, and a shm hop capped at
// its ring's record limit as internal/dist caps it. Every hop must receive
// exactly its frames, byte-identical and in order, with every bundle within
// the hop's cap and no bundle of one.
func TestHierRouterRandomized(t *testing.T) {
	const procs, perHop, ringBytes = 5, 300, 64 << 10
	shmCap := shmring.MaxRecordBytes(ringBytes)
	topo := NewHierTopo(nil, procs) // proc 0 leads, linked to every other
	kindOf := func(self, peer int) Kind {
		switch self + peer {
		case 1:
			return Shm
		case 3:
			return Socket
		}
		return TCP
	}
	tms := buildMeshesCfg(t, procs, kindOf, func(c *MeshConfig) {
		self := c.Self
		c.Linked = func(q int) bool { return topo.Linked(self, q) }
		c.RingBytes = ringBytes
	})
	rng := rand.New(rand.NewPCG(1, 2))
	caps := []int{0, shmCap, 1 + rng.IntN(4<<10), 1 + rng.IntN(512<<10), 0}
	r := NewRouter(RouterConfig{Self: 0, Topo: topo, Mesh: tms[0].m,
		BundleCap: func(hop int) int { return caps[hop] }})
	t.Cleanup(func() {
		r.Close()
		for _, tm := range tms {
			tm.m.Close()
		}
	})

	// Frames are generated up front: the producers share no state.
	type frame struct {
		via   int // 0 SendBatch, 1 Send, 2 RelayRaw, 3 RelayFrame
		batch wire.Batch
		raw   []byte
	}
	want := make([][]frame, procs)
	for hop := 1; hop < procs; hop++ {
		for i := 0; i < perHop; i++ {
			words := rng.IntN(1024)
			switch {
			case hop == 1:
				words = rng.IntN((shmCap - wire.PayloadsFrameBytes(0)) / 8)
			case rng.IntN(50) == 0:
				words = bundleBufBytes/8 + rng.IntN(1024) // a buffer of its own
			}
			b := wire.Batch{Kind: wire.KindPayloads, Source: 0, Dest: uint32(hop), Full: i%2 == 0,
				Payloads: make([]uint64, words)}
			for k := range b.Payloads {
				b.Payloads[k] = rng.Uint64()
			}
			want[hop] = append(want[hop], frame{via: rng.IntN(4), batch: b, raw: b.Append(nil)})
		}
	}
	var wg sync.WaitGroup
	for hop := 1; hop < procs; hop++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, f := range want[hop] {
				switch f.via {
				case 0:
					r.SendBatch(hop, f.batch)
				case 1:
					r.Send(hop, f.raw)
				case 2:
					r.RelayRaw(hop, f.raw)
				case 3:
					dec, _, err := wire.Decode(f.raw, 0)
					if err != nil {
						t.Error(err)
						return
					}
					r.RelayFrame(hop, dec)
				}
			}
		}()
	}
	wg.Wait()

	for hop := 1; hop < procs; hop++ {
		capBytes := caps[hop]
		if capBytes == 0 {
			capBytes = wire.DefaultMaxFrameBytes
		}
		var raws [][]byte
		deadline := time.Now().Add(20 * time.Second)
		for len(raws) < perHop {
			if time.Now().After(deadline) {
				t.Fatalf("hop %d: %d of %d frames arrived", hop, len(raws), perHop)
			}
			link := tms[hop].linkFrames()
			got, shape := unbundle(t, link)
			for k, n := range shape {
				if n == 1 {
					t.Fatalf("hop %d: a bundle of one frame", hop)
				}
				if size := link[k].FrameBytes(); n > 1 && size > capBytes {
					t.Fatalf("hop %d: %d-byte bundle over the %d-byte cap", hop, size, capBytes)
				}
			}
			raws = append(raws, got...)
			time.Sleep(time.Millisecond)
		}
		if len(raws) != perHop {
			t.Fatalf("hop %d received %d frames, want %d", hop, len(raws), perHop)
		}
		for i, raw := range raws {
			if !bytes.Equal(raw, want[hop][i].raw) {
				t.Fatalf("hop %d: frame %d differs from the %d-th sent", hop, i, i)
			}
		}
	}
}

// TestRouterAllocFree pins the relay's steady state at zero allocations per
// frame, through a running router to a socket hop, drained and written: a
// 1024-item batch encoded by SendBatch, and a lone frame forwarded by
// RelayRaw or RelayFrame. The count is process-wide; the receiver only
// counts, and reuses its read buffer.
func TestRouterAllocFree(t *testing.T) {
	items := make([]wire.Item, 1024)
	for i := range items {
		items[i] = wire.Item{Dest: uint32(i % 4), Val: uint64(i)}
	}
	tms := buildMeshes(t, 2, func(self, peer int) Kind { return Socket })
	tms[1].arrived = make(chan struct{}, 1)
	tms[1].discard.Store(true)
	r := NewRouter(RouterConfig{Self: 0, Topo: NewHierTopo(nil, 2), Mesh: tms[0].m})
	t.Cleanup(func() {
		r.Close()
		for _, tm := range tms {
			tm.m.Close()
		}
	})
	raw := wire.AppendItems(nil, 0, 1, items, true)
	f, _, err := wire.Decode(raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sent int64
	for _, tc := range []struct {
		name string
		send func()
	}{
		{"SendBatch", func() { r.SendBatch(1, wire.Batch{Kind: wire.KindItems, Full: true, Dest: 1, Items: items}) }},
		{"RelayRaw", func() { r.RelayRaw(1, raw) }},
		{"RelayFrame", func() { r.RelayFrame(1, f) }},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			tc.send()
			sent++
			for tms[1].counted.Load() < sent {
				<-tms[1].arrived
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.2f allocations per relayed 1024-item frame, want 0", tc.name, allocs)
		}
	}
}

// TestHierRouterDeadHop pins the failure surface: a relay send to a dead
// next hop reports exactly one PeerExit naming that hop, and other hops
// keep flowing.
func TestHierRouterDeadHop(t *testing.T) {
	topo := NewHierTopo([]int{0, 1, 2}, 3)
	hs := buildHier(t, topo, func(self, peer int) Kind { return Socket })

	// Kill proc 1's side of the links, then push frames 0->1 until the
	// router observes the dead hop.
	hs[1].m.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		hs[0].router.Send(1, wire.AppendPayloads(nil, 0, 1, []uint64{1}, false))
		select {
		case ex := <-hs[0].errc:
			if ex.Peer != 1 {
				t.Fatalf("failure attributed to peer %d, want 1", ex.Peer)
			}
			if ex.Err == nil {
				// The receive loop's clean exit for the closed link; keep
				// waiting for the router's send-side report.
				continue
			}
			// Route to proc 2 must still work after hop 1 is marked dead.
			hs[0].router.Send(2, wire.AppendPayloads(nil, 0, 2, []uint64{9}, false))
			hs[2].waitFrames(t, 1)
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("router never reported the dead hop")
		}
		time.Sleep(time.Millisecond)
	}
}
