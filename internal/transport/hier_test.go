package transport

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tramlib/internal/wire"
)

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

	mu      sync.Mutex
	frames  []wire.Frame
	bundles int // KindBundle envelopes seen on this process's links
}

func (h *hierHarness) handle(f wire.Frame) error {
	if f.Kind == wire.KindBundle {
		h.mu.Lock()
		h.bundles++
		h.mu.Unlock()
		return f.EachFrame(func(raw []byte, in wire.Frame) error {
			h.dispatch(in, raw)
			return nil
		})
	}
	h.dispatch(f, nil)
	return nil
}

func (h *hierHarness) dispatch(f wire.Frame, raw []byte) {
	if int(f.Dest) != h.self {
		if raw == nil {
			raw = wire.AppendFrame(nil, f)
		}
		h.router.RelayRaw(h.topo.NextHop(h.self, int(f.Dest)), raw)
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

// TestHierRouterBundling drives the router's flush directly — a drained
// batch of same-hop frames must coalesce into one KindBundle envelope, and
// the cap must split an oversized batch while preserving per-hop order.
func TestHierRouterBundling(t *testing.T) {
	topo := NewHierTopo([]int{0, 1}, 2)
	hs := buildHier(t, topo, func(self, peer int) Kind { return Socket })

	frames := make([][]byte, 5)
	var batch []relayItem
	for i := range frames {
		frames[i] = wire.AppendPayloads(nil, 0, 1, []uint64{uint64(i), uint64(i), uint64(i)}, false)
		batch = append(batch, relayItem{hop: 1, buf: &frames[i]})
	}

	// Uncapped: the whole batch travels as one bundle.
	hs[0].router.flush(batch, map[int]bool{})
	got := hs[1].waitFrames(t, 5)
	if len(got) != 5 {
		t.Fatalf("received %d frames, want 5", len(got))
	}
	for i, f := range got {
		var buf [3]uint64
		if v := f.Payloads(buf[:]); v[0] != uint64(i) {
			t.Fatalf("frame %d out of order: payload %v", i, v)
		}
	}
	hs[1].mu.Lock()
	bundles := hs[1].bundles
	hs[1].mu.Unlock()
	if bundles != 1 {
		t.Fatalf("batch of 5 same-hop frames traveled in %d bundles, want 1", bundles)
	}
	// A cap below a single frame's size forces every frame verbatim.
	tiny := &Router{cfg: RouterConfig{
		Self: 0,
		Topo: topo,
		Mesh: hs[0].m,
		// Below even a single frame's size: everything ships verbatim.
		BundleCap: func(hop int) int { return 1 },
	}}
	tiny.pool.New = func() any { b := make([]byte, 0, 64); return &b }
	tiny.flush(batch, map[int]bool{})
	got = hs[1].waitFrames(t, 10)
	for i, f := range got[5:] {
		var buf [3]uint64
		if v := f.Payloads(buf[:]); v[0] != uint64(i) {
			t.Fatalf("capped frame %d out of order: payload %v", i, v)
		}
	}

	// A mid-range cap splits into several bundles, still in order.
	mid := &Router{cfg: RouterConfig{
		Self: 0,
		Topo: topo,
		Mesh: hs[0].m,
		// Room for two frames per bundle.
		BundleCap: func(hop int) int { return wire.BundleFrameBytes(2 * len(frames[0])) },
	}}
	mid.pool.New = func() any { b := make([]byte, 0, 256); return &b }
	mid.flush(batch, map[int]bool{})
	got = hs[1].waitFrames(t, 15)
	for i, f := range got[10:] {
		var buf [3]uint64
		if v := f.Payloads(buf[:]); v[0] != uint64(i) {
			t.Fatalf("mid-cap frame %d out of order: payload %v", i, v)
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
