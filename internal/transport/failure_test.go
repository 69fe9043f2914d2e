package transport

import (
	"errors"
	"testing"
	"time"

	"tramlib/internal/faultinject"
)

// A peer that vanished must surface as ErrPeerDead from a send, not a panic:
// this is the contract the dist worker's failure reporting builds on. The
// same classification must hold on both stream kinds.
func TestSocketSendToDeadPeer(t *testing.T) {
	for _, kind := range []Kind{Socket, TCP} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			tms := buildMeshes(t, 2, func(self, peer int) Kind { return kind })
			// Simulate peer death: tear mesh 1 down without any protocol goodbye.
			tms[1].m.Close()
			<-tms[1].errc
			deadline := time.Now().Add(10 * time.Second)
			for {
				// The first writes may land in socket buffers; keep pushing until
				// the kernel reports the peer gone.
				err := tms[0].m.Peer(1).Send(payloads(10, make([]uint64, 1024)...))
				if err != nil {
					if !errors.Is(err, ErrPeerDead) {
						t.Fatalf("send to dead peer: %v, want ErrPeerDead in the chain", err)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("sends to a dead peer kept succeeding")
				}
			}
			tms[0].m.Close()
			<-tms[0].errc
		})
	}
}

// A send on our own closed mesh must error (not panic) so racing teardown
// is survivable.
func TestSendAfterLocalCloseErrors(t *testing.T) {
	for _, kind := range []Kind{Socket, Shm, TCP} {
		tms := buildMeshes(t, 2, func(self, peer int) Kind { return kind })
		p := tms[0].m.Peer(1)
		tms[0].m.Close()
		tms[1].m.Close()
		deadline := time.Now().Add(10 * time.Second)
		for {
			err := p.Send(payloads(10, 1))
			if err != nil {
				break // errored, did not panic: the contract holds
			}
			if time.Now().After(deadline) {
				t.Fatalf("%v: sends on a closed mesh kept succeeding", kind)
			}
		}
		for _, tm := range tms {
			<-tm.errc
		}
	}
}

// The recv-frame injection point must drop or fail frames deterministically.
func TestRecvFrameInjection(t *testing.T) {
	for _, kind := range []Kind{Socket, Shm, TCP} {
		faultinject.Set(faultinject.Spec{Point: faultinject.PointRecvFrame, Act: faultinject.Drop, Proc: -1, After: 1})
		tms := buildMeshes(t, 2, func(self, peer int) Kind { return kind })
		if err := tms[0].m.Peer(1).Send(payloads(10, 1)); err != nil {
			t.Fatalf("send: %v", err)
		}
		if err := tms[0].m.Peer(1).Send(payloads(10, 2)); err != nil {
			t.Fatalf("send: %v", err)
		}
		// The first frame is dropped before dispatch; only the second lands.
		frames := tms[1].waitFrames(t, 1)
		var buf [1]uint64
		if got := frames[0].Payloads(buf[:]); got[0] != 2 {
			t.Fatalf("%v: surviving frame carries %d, want 2 (drop consumed the wrong frame)", kind, got[0])
		}
		faultinject.Reset()
		for _, tm := range tms {
			tm.m.Close()
		}
		for _, tm := range tms {
			<-tm.errc
		}
	}
}
