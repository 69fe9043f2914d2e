package shmring

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// newImage returns a valid in-memory segment image with a dataBytes area.
func newImage(dataBytes int) []byte {
	mem := make([]byte, headerBytes+dataBytes)
	copy(mem[:8], magic)
	binary.LittleEndian.PutUint32(mem[8:], Version)
	binary.LittleEndian.PutUint64(mem[16:], uint64(dataBytes))
	return mem
}

// pair attaches producer and consumer rings over one shared image.
func pair(t *testing.T, dataBytes int) (prod, cons *Ring) {
	t.Helper()
	mem := newImage(dataBytes)
	var err error
	if prod, err = Attach(mem); err != nil {
		t.Fatal(err)
	}
	if cons, err = Attach(mem); err != nil {
		t.Fatal(err)
	}
	return prod, cons
}

// record builds a valid record of total bytes: prefix + patterned body.
func record(total int, tag byte) []byte {
	rec := make([]byte, total)
	binary.LittleEndian.PutUint32(rec, uint32(total-prefixBytes))
	for i := prefixBytes; i < total; i++ {
		rec[i] = tag ^ byte(i)
	}
	return rec
}

// writeRec publishes rec through prod.
func writeRec(t *testing.T, prod *Ring, rec []byte) {
	t.Helper()
	if err := prod.Write(len(rec), func(dst []byte) []byte {
		return append(dst, rec...)
	}); err != nil {
		t.Fatalf("Write: %v", err)
	}
}

func TestRoundTripWithWraps(t *testing.T) {
	// A small ring and varied record sizes force the wrap path (explicit pad
	// markers) and the implicit (< 4 byte remainder) pad many times over.
	prod, cons := pair(t, 64)
	rng := rand.New(rand.NewSource(1))
	var sent, got [][]byte
	for i := 0; i < 500; i++ {
		rec := record(prefixBytes+1+rng.Intn(27), byte(i))
		writeRec(t, prod, rec)
		sent = append(sent, rec)
		if _, err := cons.Drain(0, func(r []byte) error {
			got = append(got, append([]byte(nil), r...))
			return nil
		}); err != nil {
			t.Fatalf("Drain: %v", err)
		}
	}
	if len(got) != len(sent) {
		t.Fatalf("received %d records, sent %d", len(got), len(sent))
	}
	for i := range sent {
		if !bytes.Equal(sent[i], got[i]) {
			t.Fatalf("record %d mismatch:\n sent %x\n got  %x", i, sent[i], got[i])
		}
	}
}

func TestEOFMarker(t *testing.T) {
	prod, cons := pair(t, 256)
	writeRec(t, prod, record(24, 7))
	if err := prod.CloseSend(); err != nil {
		t.Fatalf("CloseSend: %v", err)
	}
	n := 0
	if err := cons.Recv(0, func([]byte) error { n++; return nil }); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if n != 1 {
		t.Fatalf("delivered %d records before EOF, want 1", n)
	}
}

func TestConcurrentProducerConsumer(t *testing.T) {
	// A real producer goroutine against a blocking consumer, with records up
	// to the half-capacity limit so backpressure (the producer's bounded
	// spin + park) is exercised, then a clean EOF.
	prod, cons := pair(t, 128)
	const n = 2000
	rng := rand.New(rand.NewSource(2))
	var sent [][]byte
	for i := 0; i < n; i++ {
		sent = append(sent, record(prefixBytes+1+rng.Intn(59), byte(i)))
	}
	go func() {
		for _, rec := range sent {
			rec := rec
			if err := prod.Write(len(rec), func(dst []byte) []byte {
				return append(dst, rec...)
			}); err != nil {
				panic(err)
			}
		}
		if err := prod.CloseSend(); err != nil {
			panic(err)
		}
	}()
	var got [][]byte
	if err := cons.Recv(0, func(r []byte) error {
		got = append(got, append([]byte(nil), r...))
		return nil
	}); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if len(got) != n {
		t.Fatalf("received %d records, want %d", len(got), n)
	}
	for i := range sent {
		if !bytes.Equal(sent[i], got[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestInterruptUnblocksRecv(t *testing.T) {
	_, cons := pair(t, 128)
	done := make(chan error, 1)
	go func() {
		done <- cons.Recv(0, func([]byte) error { return nil })
	}()
	time.Sleep(2 * time.Millisecond) // let it park
	cons.Interrupt()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock after Interrupt")
	}
}

func TestTinyMaxRecordStillRejects(t *testing.T) {
	// A cap below the prefix size must not underflow the length check and
	// wave every record through: the published 24-byte record is over any
	// such cap and must be rejected.
	prod, cons := pair(t, 256)
	writeRec(t, prod, record(24, 5))
	if _, err := cons.Drain(3, func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Drain with tiny cap: %v, want ErrCorrupt", err)
	}
}

func TestWriteTooLarge(t *testing.T) {
	prod, _ := pair(t, 64)
	err := prod.Write(65+prefixBytes, func(dst []byte) []byte { return dst })
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized Write returned %v, want ErrTooLarge", err)
	}
}

func TestFillMismatchDetected(t *testing.T) {
	prod, _ := pair(t, 256)
	err := prod.Write(24, func(dst []byte) []byte {
		return append(dst, record(20, 3)...) // wrong size and prefix
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatched fill returned %v, want ErrCorrupt", err)
	}
}

func TestAttachValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(mem []byte) []byte
		want   error
	}{
		{"short", func(mem []byte) []byte { return mem[:headerBytes-1] }, ErrCapacity},
		{"magic", func(mem []byte) []byte { mem[0] ^= 0xFF; return mem }, ErrMagic},
		{"version", func(mem []byte) []byte { mem[8] = 99; return mem }, ErrVersion},
		{"capacity-zero", func(mem []byte) []byte {
			binary.LittleEndian.PutUint64(mem[16:], 0)
			return mem
		}, ErrCapacity},
		{"capacity-mismatch", func(mem []byte) []byte {
			binary.LittleEndian.PutUint64(mem[16:], 9999)
			return mem
		}, ErrCapacity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Attach(tc.mutate(newImage(128))); !errors.Is(err, tc.want) {
				t.Fatalf("Attach: %v, want %v", err, tc.want)
			}
		})
	}
}

func TestCorruptCursorsAndPrefixes(t *testing.T) {
	put64 := func(mem []byte, off int, v uint64) { binary.LittleEndian.PutUint64(mem[off:], v) }
	cases := []struct {
		name   string
		mutate func(mem []byte)
	}{
		{"tail-beyond-head", func(mem []byte) { put64(mem, tailOff, 10) }},
		{"imbalance-over-capacity", func(mem []byte) { put64(mem, headOff, 1<<40) }},
		{"partial-prefix", func(mem []byte) { put64(mem, headOff, 2) }},
		{"record-overruns-contiguous", func(mem []byte) {
			put64(mem, headOff, 128)
			binary.LittleEndian.PutUint32(mem[headerBytes:], 1000)
		}},
		{"partial-record", func(mem []byte) {
			put64(mem, headOff, 8)
			binary.LittleEndian.PutUint32(mem[headerBytes:], 64)
		}},
		{"cursor-inside-pad", func(mem []byte) {
			// tail near the end with a pad marker but head short of the wrap
			put64(mem, tailOff, 120)
			put64(mem, headOff, 122)
			binary.LittleEndian.PutUint32(mem[headerBytes+120:], padMarker)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := newImage(128)
			tc.mutate(mem)
			r, err := Attach(mem)
			if err != nil {
				t.Fatalf("Attach: %v", err)
			}
			if _, err := r.Drain(0, func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Drain: %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestFileBacked(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("file-backed segments need a unix mmap")
	}
	// Two independent mappings of one segment file — the in-process stand-in
	// for the two processes of a directed peer pair.
	path := filepath.Join(t.TempDir(), "r0-1.ring")
	cons, err := Create(path, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	go func() {
		for i := 0; i < n; i++ {
			rec := record(24+(i%100), byte(i))
			if err := prod.Write(len(rec), func(dst []byte) []byte {
				return append(dst, rec...)
			}); err != nil {
				panic(err)
			}
		}
		if err := prod.CloseSend(); err != nil {
			panic(err)
		}
	}()
	got := 0
	if err := cons.Recv(0, func(r []byte) error {
		want := record(len(r), byte(got))
		if !bytes.Equal(r, want) {
			return fmt.Errorf("record %d mismatch", got)
		}
		got++
		return nil
	}); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if got != n {
		t.Fatalf("received %d records, want %d", got, n)
	}
	if err := cons.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestOpenRejectsCorruptHeader(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("file-backed segments need a unix mmap")
	}
	path := filepath.Join(t.TempDir(), "bad.ring")
	cons, err := Create(path, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	cons.mem[0] ^= 0xFF // corrupt the magic through the live mapping
	if _, err := Open(path); !errors.Is(err, ErrMagic) {
		t.Fatalf("Open on corrupt header: %v, want ErrMagic", err)
	}
	cons.Close()
}
