package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tramlib/internal/wire"
)

// testMesh is one simulated process: a mesh plus a recorder of every frame
// it received.
type testMesh struct {
	m    *Mesh
	errc chan PeerExit

	mu     sync.Mutex
	frames []wire.Frame

	// discard, once set, makes handle only count frames (in counted): a
	// receiver that allocates nothing. A non-nil hold then also parks the
	// receive loop in handle until hold is closed; a non-nil arrived gets a
	// token (dropped when one is already pending) after each count.
	discard atomic.Bool
	counted atomic.Int64
	hold    chan struct{}
	arrived chan struct{}
}

func (tm *testMesh) handle(f wire.Frame) error {
	if tm.discard.Load() {
		tm.counted.Add(1)
		if tm.hold != nil {
			<-tm.hold
		}
		if tm.arrived != nil {
			select {
			case tm.arrived <- struct{}{}:
			default:
			}
		}
		return nil
	}
	// Frames alias transport memory: deep-copy before recording.
	p := append([]byte(nil), f.Payload...)
	f.Payload = p
	tm.mu.Lock()
	tm.frames = append(tm.frames, f)
	tm.mu.Unlock()
	return nil
}

// buildMesh runs the coordinator's barrier discipline in-process: every
// mesh Listens, the TCP data addresses are gathered (the coordinator's
// Listening barrier), then every mesh Connects (concurrently: stream dials
// block until the dialed side accepts).
func buildMeshes(t *testing.T, procs int, kindOf func(self, peer int) Kind) []*testMesh {
	return buildMeshesCfg(t, procs, kindOf, func(*MeshConfig) {})
}

func buildMeshesCfg(t *testing.T, procs int, kindOf func(self, peer int) Kind, tweak func(*MeshConfig)) []*testMesh {
	t.Helper()
	dir := t.TempDir()
	tms := make([]*testMesh, procs)
	for p := 0; p < procs; p++ {
		p := p
		tm := &testMesh{errc: make(chan PeerExit, procs+1)}
		cfg := MeshConfig{
			Dir:   dir,
			Self:  p,
			Procs: procs,
			KindOf: func(q int) Kind {
				return kindOf(p, q)
			},
		}
		tweak(&cfg)
		tm.m = NewMesh(cfg, tm.handle, tm.errc)
		tms[p] = tm
	}
	for _, tm := range tms {
		if err := tm.m.Listen(); err != nil {
			t.Fatalf("Listen: %v", err)
		}
	}
	addrs := make([]string, procs)
	for p, tm := range tms {
		addrs[p] = tm.m.Addr()
	}
	var wg sync.WaitGroup
	errs := make(chan error, procs)
	for _, tm := range tms {
		tm := tm
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- tm.m.Connect(addrs)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("Connect: %v", err)
		}
	}
	return tms
}

// waitFrames blocks until tm recorded want frames (or times out).
func (tm *testMesh) waitFrames(t *testing.T, want int) []wire.Frame {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		tm.mu.Lock()
		n := len(tm.frames)
		frames := append([]wire.Frame(nil), tm.frames...)
		tm.mu.Unlock()
		if n >= want {
			return frames
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %d of %d frames", n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// exerciseMesh sends one frame of each kind across every ordered pair and
// checks arrival, then closes and checks clean receive-loop exits.
func exerciseMesh(t *testing.T, procs int, kindOf func(self, peer int) Kind) {
	t.Helper()
	tms := buildMeshes(t, procs, kindOf)
	for src, tm := range tms {
		for dst := range tms {
			if dst == src {
				continue
			}
			p := tm.m.Peer(dst)
			if p == nil {
				t.Fatalf("mesh %d has no link to %d", src, dst)
			}
			if err := p.Send(wire.Batch{Kind: wire.KindPayloads, Full: true, Source: uint32(src), Dest: uint32(dst * 10),
				Payloads: []uint64{uint64(src), uint64(dst), 7}}); err != nil {
				t.Fatalf("mesh %d payloads send to %d: %v", src, dst, err)
			}
			if err := p.SendItems(uint32(dst), []wire.Item{{Dest: uint32(dst*10 + 1), Val: uint64(100*src + dst)}}, false); err != nil {
				t.Fatalf("mesh %d SendItems to %d: %v", src, dst, err)
			}
			if err := p.Send(wire.Batch{Kind: wire.KindRuns, Source: uint32(src), Dest: uint32(dst), Runs: []wire.Run{
				{Dest: uint32(dst * 10), Payloads: []uint64{1, 2}},
				{Dest: uint32(dst*10 + 1), Payloads: []uint64{3}},
			}}); err != nil {
				t.Fatalf("mesh %d runs send to %d: %v", src, dst, err)
			}
		}
	}
	perDest := 3 * (procs - 1)
	for dst, tm := range tms {
		frames := tm.waitFrames(t, perDest)
		if len(frames) != perDest {
			t.Fatalf("mesh %d received %d frames, want %d", dst, len(frames), perDest)
		}
		counts := map[wire.Kind]int{}
		bySrc := map[uint32]int{}
		for _, f := range frames {
			counts[f.Kind]++
			bySrc[f.Source]++
			switch f.Kind {
			case wire.KindPayloads:
				if f.Dest != uint32(dst*10) || !f.Full() {
					t.Fatalf("mesh %d: bad payloads frame %+v", dst, f.Header)
				}
				var buf [3]uint64
				got := f.Payloads(buf[:])
				if got[0] != uint64(f.Source) || got[1] != uint64(dst) || got[2] != 7 {
					t.Fatalf("mesh %d: payloads %v from %d", dst, got, f.Source)
				}
			case wire.KindItems:
				f.EachItem(func(d uint32, v uint64) {
					if d != uint32(dst*10+1) || v != uint64(100*int(f.Source)+dst) {
						t.Fatalf("mesh %d: item (%d,%d) from %d", dst, d, v, f.Source)
					}
				})
			case wire.KindRuns:
				if f.Count != 2 {
					t.Fatalf("mesh %d: runs frame with %d runs", dst, f.Count)
				}
			default:
				t.Fatalf("mesh %d: unexpected %v frame", dst, f.Kind)
			}
		}
		for src := range tms {
			if src == dst {
				continue
			}
			if bySrc[uint32(src)] != 3 {
				t.Fatalf("mesh %d: %d frames from %d, want 3", dst, bySrc[uint32(src)], src)
			}
		}
	}
	// Teardown: every close must surface as a clean receive-loop exit (nil)
	// on the peers' error channels.
	for _, tm := range tms {
		tm.m.Close()
	}
	for p, tm := range tms {
		seen := map[int]bool{}
		for i := 0; i < procs-1; i++ {
			select {
			case ex := <-tm.errc:
				if ex.Err != nil {
					t.Fatalf("mesh %d recv loop for peer %d: %v", p, ex.Peer, ex.Err)
				}
				if ex.Peer == p || ex.Peer < 0 || ex.Peer >= procs || seen[ex.Peer] {
					t.Fatalf("mesh %d: bad or duplicate peer id %d in exit", p, ex.Peer)
				}
				seen[ex.Peer] = true
			case <-time.After(10 * time.Second):
				t.Fatalf("mesh %d: recv loop %d never exited", p, i)
			}
		}
	}
}

func TestMeshAllSocket(t *testing.T) {
	exerciseMesh(t, 3, func(self, peer int) Kind { return Socket })
}

func TestMeshAllShm(t *testing.T) {
	exerciseMesh(t, 3, func(self, peer int) Kind { return Shm })
}

func TestMeshAllTCP(t *testing.T) {
	exerciseMesh(t, 3, func(self, peer int) Kind { return TCP })
}

func TestMeshMixed(t *testing.T) {
	// Nodes {0,0,1}: the 0-1 pair shares a node (shm); everything touching
	// proc 2 crosses nodes (socket) — the grouping the Dist coordinator
	// derives from its Nodes map.
	nodes := []int{0, 0, 1}
	exerciseMesh(t, 3, func(self, peer int) Kind {
		if nodes[self] == nodes[peer] {
			return Shm
		}
		return Socket
	})
}

func TestMeshMixedTCP(t *testing.T) {
	// The multi-node shape TCP exists for: same-node pairs on rings,
	// node-crossing pairs on TCP streams.
	nodes := []int{0, 0, 1}
	exerciseMesh(t, 3, func(self, peer int) Kind {
		if nodes[self] == nodes[peer] {
			return Shm
		}
		return TCP
	})
}

func TestMeshTCPInjectedLatency(t *testing.T) {
	// Injected per-link latency must delay frames without corrupting or
	// dropping them: the full exercise passes, just slower.
	start := time.Now()
	exerciseMesh(t, 2, func(self, peer int) Kind { return TCP })
	if time.Since(start) > 5*time.Second {
		t.Fatalf("latency-free exercise too slow: %v", time.Since(start))
	}
	tms := buildMeshesCfg(t, 2, func(self, peer int) Kind { return TCP }, func(c *MeshConfig) {
		c.LinkDelay = 20 * time.Millisecond
		c.LinkJitter = 5 * time.Millisecond
	})
	sent := time.Now()
	if err := tms[0].m.Peer(1).Send(payloads(10, 1, 2, 3)); err != nil {
		t.Fatalf("payloads send: %v", err)
	}
	tms[1].waitFrames(t, 1)
	if d := time.Since(sent); d < 20*time.Millisecond {
		t.Fatalf("frame arrived after %v, want >= the 20ms injected delay", d)
	}
	for _, tm := range tms {
		tm.m.Close()
	}
}

// TestSendAllocFree pins the send path's allocation budget: one sealed
// 1024-item batch sent over an established link — encoded into the socket
// link's reused scratch buffer, or in place into the shm ring — allocates
// nothing. The count is process-wide, so the receiver must not allocate
// either: a socket receiver reuses its read buffer, and the shm receiver is
// held inside its handler (the ring is sized to take every frame) so that it
// never enters a fresh parked wait, which allocates a timer.
func TestSendAllocFree(t *testing.T) {
	items := make([]wire.Item, 1024)
	for i := range items {
		items[i] = wire.Item{Dest: uint32(i % 4), Val: uint64(i)}
	}
	const runs = 100
	for _, kind := range []Kind{Socket, Shm} {
		t.Run(kind.String(), func(t *testing.T) {
			tms := buildMeshesCfg(t, 2, func(self, peer int) Kind { return kind }, func(c *MeshConfig) {
				c.RingBytes = 2 * (runs + 1) * wire.ItemsFrameBytes(len(items))
			})
			if kind == Shm {
				tms[1].hold = make(chan struct{})
			}
			tms[1].discard.Store(true)
			link := tms[0].m.Peer(1)
			allocs := testing.AllocsPerRun(runs, func() {
				if err := link.SendItems(1, items, true); err != nil {
					t.Fatal(err)
				}
			})
			if tms[1].hold != nil {
				close(tms[1].hold)
			}
			if allocs != 0 {
				t.Errorf("%v: %.2f allocations per 1024-item batch send, want 0", kind, allocs)
			}
			deadline := time.Now().Add(10 * time.Second)
			for tms[1].counted.Load() < runs+1 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := tms[1].counted.Load(); n != runs+1 {
				t.Errorf("%v: peer received %d frames, want %d", kind, n, runs+1)
			}
			for _, tm := range tms {
				tm.m.Close()
			}
		})
	}
}

// payloads builds a worker-addressed batch for dest.
func payloads(dest uint32, words ...uint64) wire.Batch {
	return wire.Batch{Kind: wire.KindPayloads, Dest: dest, Payloads: words}
}

func TestKindString(t *testing.T) {
	if Socket.String() != "socket" || Shm.String() != "shm" || TCP.String() != "tcp" {
		t.Fatalf("kind names: %q, %q, %q", Socket, Shm, TCP)
	}
	if s := Kind(9).String(); s != "kind(9)" {
		t.Fatalf("unknown kind renders %q", s)
	}
}
