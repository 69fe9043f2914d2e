package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestPayloadsRoundTrip(t *testing.T) {
	want := []uint64{0, 1, 1<<64 - 1, 42, 1 << 63}
	buf := AppendPayloads(nil, 3, 17, want, true)
	f, n, err := Decode(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if f.Kind != KindPayloads || f.Source != 3 || f.Dest != 17 || !f.Full() {
		t.Fatalf("header mismatch: %+v", f.Header)
	}
	got := f.Payloads(make([]uint64, f.Count))
	if len(got) != len(want) {
		t.Fatalf("decoded %d payloads, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("payload %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestItemsRoundTrip(t *testing.T) {
	want := []Item{{Dest: 0, Val: 9}, {Dest: 1<<32 - 1, Val: 1<<64 - 1}, {Dest: 7, Val: 0}}
	buf := AppendItems(nil, 1, 2, want, false)
	f, _, err := Decode(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindItems || f.Full() {
		t.Fatalf("header mismatch: %+v", f.Header)
	}
	got := f.Items(make([]Item, f.Count))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("item %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRunsRoundTrip(t *testing.T) {
	want := []Run{
		{Dest: 4, Payloads: []uint64{1, 2, 3}},
		{Dest: 5, Payloads: nil},
		{Dest: 6, Payloads: []uint64{1<<64 - 1}},
	}
	buf := AppendRuns(nil, 9, 1, want, true)
	f, _, err := Decode(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindRuns || int(f.Count) != len(want) {
		t.Fatalf("header mismatch: %+v", f.Header)
	}
	got := f.Runs(nil, func(n int) []uint64 { return make([]uint64, n) })
	if len(got) != len(want) {
		t.Fatalf("decoded %d runs, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Dest != want[i].Dest || len(r.Payloads) != len(want[i].Payloads) {
			t.Fatalf("run %d = (%d,%d), want (%d,%d)", i, r.Dest, len(r.Payloads), want[i].Dest, len(want[i].Payloads))
		}
		for j, v := range r.Payloads {
			if v != want[i].Payloads[j] {
				t.Fatalf("run %d payload %d = %d, want %d", i, j, v, want[i].Payloads[j])
			}
		}
	}
}

func TestControlRoundTrip(t *testing.T) {
	doc := []byte(`{"hello":1}`)
	buf := AppendControl(nil, 2, 77, doc)
	f, _, err := Decode(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindControl || f.Dest != 77 || !bytes.Equal(f.Payload, doc) {
		t.Fatalf("control mismatch: %+v %q", f.Header, f.Payload)
	}
}

func TestBundleRoundTrip(t *testing.T) {
	f1 := AppendPayloads(nil, 2, 5, []uint64{11, 22}, true)
	f2 := AppendItems(nil, 3, 6, []Item{{Dest: 1, Val: 7}}, false)
	f3 := AppendRuns(nil, 2, 7, []Run{{Dest: 0, Payloads: []uint64{9}}}, false)
	inner := append(append(bytes.Clone(f1), f2...), f3...)

	buf := AppendBundle(nil, 1, 4, 3, inner)
	if len(buf) != BundleFrameBytes(len(inner)) {
		t.Fatalf("encoded %d bytes, BundleFrameBytes says %d", len(buf), BundleFrameBytes(len(inner)))
	}
	f, n, err := Decode(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) || f.Kind != KindBundle || f.Source != 1 || f.Dest != 4 || f.Count != 3 {
		t.Fatalf("bundle header mismatch: consumed %d/%d, %+v", n, len(buf), f.Header)
	}
	want := [][]byte{f1, f2, f3}
	wantKinds := []Kind{KindPayloads, KindItems, KindRuns}
	i := 0
	err = f.EachFrame(func(raw []byte, inf Frame) error {
		if !bytes.Equal(raw, want[i]) {
			t.Fatalf("inner frame %d raw bytes differ", i)
		}
		if inf.Kind != wantKinds[i] {
			t.Fatalf("inner frame %d kind %v, want %v", i, inf.Kind, wantKinds[i])
		}
		if re := AppendFrame(nil, inf); !bytes.Equal(re, raw) || inf.FrameBytes() != len(raw) {
			t.Fatalf("inner frame %d re-encodes to %d bytes (FrameBytes %d), want its %d raw bytes", i, len(re), inf.FrameBytes(), len(raw))
		}
		i++
		return nil
	})
	if err != nil || i != 3 {
		t.Fatalf("EachFrame: err=%v, iterated %d of 3", err, i)
	}

	// Sealing in place — header written over a reserved front — encodes the
	// same bytes as AppendBundle.
	inPlace := append(make([]byte, BundleFrameBytes(0)), inner...)
	AppendBundleHeader(inPlace[:0], 1, 4, 3, len(inner))
	if !bytes.Equal(inPlace, buf) {
		t.Fatal("bundle sealed in place differs from AppendBundle")
	}

	// An empty bundle is legal (a relay flushing nothing encodes nothing in
	// practice, but the envelope itself permits count 0).
	empty := AppendBundle(nil, 0, 1, 0, nil)
	fe, _, err := Decode(empty, 0)
	if err != nil || fe.Count != 0 {
		t.Fatalf("empty bundle: %+v err=%v", fe.Header, err)
	}
}

func TestBundleRejectsBadShapes(t *testing.T) {
	one := AppendPayloads(nil, 1, 2, []uint64{5}, false)

	// Nested bundles are rejected (bounded recursion).
	nested := AppendBundle(nil, 0, 1, 1, AppendBundle(nil, 0, 1, 1, one))
	if _, _, err := Decode(nested, 0); !errors.Is(err, ErrKind) {
		t.Fatalf("nested bundle: err = %v, want ErrKind", err)
	}

	// Count exceeding the actual frames.
	over := AppendBundle(nil, 0, 1, 2, one)
	if _, _, err := Decode(over, 0); !errors.Is(err, ErrCount) {
		t.Fatalf("overdeclared count: err = %v, want ErrCount", err)
	}

	// Trailing bytes after the declared frames.
	trailing := AppendBundle(nil, 0, 1, 1, append(bytes.Clone(one), 0xEE))
	if _, _, err := Decode(trailing, 0); !errors.Is(err, ErrCount) {
		t.Fatalf("trailing bytes: err = %v, want ErrCount", err)
	}

	// An inner frame that is itself corrupt (bad magic).
	badInner := bytes.Clone(one)
	badInner[prefixBytes] = 0x00
	corrupt := AppendBundle(nil, 0, 1, 1, badInner)
	if _, _, err := Decode(corrupt, 0); !errors.Is(err, ErrMagic) {
		t.Fatalf("corrupt inner frame: err = %v, want ErrMagic", err)
	}

	// An inner prefix claiming past the payload end.
	short := AppendBundle(nil, 0, 1, 1, one[:len(one)-2])
	if _, _, err := Decode(short, 0); !errors.Is(err, ErrCount) {
		t.Fatalf("truncated inner frame: err = %v, want ErrCount", err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := AppendPayloads(nil, 1, 2, []uint64{10, 20}, false)

	mutate := func(off int, b byte) []byte {
		c := bytes.Clone(good)
		c[off] = b
		return c
	}
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrShort},
		{"short prefix", good[:3], ErrShort},
		{"truncated body", good[:len(good)-1], ErrShort},
		{"bad magic", mutate(4, 0x00), ErrMagic},
		{"bad version", mutate(5, 99), ErrVersion},
		{"kind zero", mutate(6, 0), ErrKind},
		{"kind high", mutate(6, byte(kindMax)), ErrKind},
		{"count mismatch", mutate(16, 3), ErrCount},
		{"length below header", binary.LittleEndian.AppendUint32(nil, 5), ErrCount},
	}
	for _, tc := range cases {
		if _, _, err := Decode(tc.buf, 0); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// Oversized length prefix must be rejected without allocating the claim.
	huge := binary.LittleEndian.AppendUint32(nil, 1<<30)
	huge = append(huge, make([]byte, 64)...)
	if _, _, err := Decode(huge, 0); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized: err = %v, want ErrTooLarge", err)
	}
	// A tight explicit limit applies too.
	if _, _, err := Decode(good, 8); !errors.Is(err, ErrTooLarge) {
		t.Errorf("tight limit: err = %v, want ErrTooLarge", err)
	}
}

func TestRunsRejectsBadShapes(t *testing.T) {
	// A runs frame whose inner lengths overflow the payload.
	runs := AppendRuns(nil, 0, 0, []Run{{Dest: 1, Payloads: []uint64{5}}}, false)
	// Corrupt the run's payload count (offset: 4 prefix + 16 header + 4 dest).
	binary.LittleEndian.PutUint32(runs[24:], 1<<20)
	if _, _, err := Decode(runs, 0); !errors.Is(err, ErrCount) {
		t.Fatalf("inflated run count: err = %v, want ErrCount", err)
	}

	// Fewer runs than declared.
	runs2 := AppendRuns(nil, 0, 0, []Run{{Dest: 1, Payloads: []uint64{5}}}, false)
	binary.LittleEndian.PutUint32(runs2[16:], 2) // header count
	if _, _, err := Decode(runs2, 0); !errors.Is(err, ErrCount) {
		t.Fatalf("excess declared runs: err = %v, want ErrCount", err)
	}

	// Trailing bytes after the declared runs.
	runs3 := AppendRuns(nil, 0, 0, []Run{{Dest: 1, Payloads: []uint64{5}}}, false)
	runs3 = append(runs3, 0xFF)
	binary.LittleEndian.PutUint32(runs3[0:], uint32(len(runs3)-4))
	if _, _, err := Decode(runs3, 0); !errors.Is(err, ErrCount) {
		t.Fatalf("trailing bytes: err = %v, want ErrCount", err)
	}
}

func TestReaderStream(t *testing.T) {
	var stream []byte
	stream = AppendPayloads(stream, 0, 1, []uint64{1, 2, 3}, false)
	stream = AppendItems(stream, 1, 0, []Item{{Dest: 2, Val: 4}}, true)
	stream = AppendControl(stream, 2, 9, []byte("ok"))

	r := NewReader(bytes.NewReader(stream), 0)
	kinds := []Kind{KindPayloads, KindItems, KindControl}
	for i, k := range kinds {
		f, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Kind != k {
			t.Fatalf("frame %d kind %v, want %v", i, f.Kind, k)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("end of stream: err = %v, want io.EOF", err)
	}

	// EOF mid-frame is an unexpected EOF, not a clean end.
	r2 := NewReader(bytes.NewReader(stream[:len(stream)-1]), 0)
	r2.Next()
	r2.Next()
	if _, err := r2.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("mid-frame EOF: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestAppendReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 4096)
	n := testing.AllocsPerRun(100, func() {
		buf = AppendPayloads(buf[:0], 1, 2, []uint64{1, 2, 3, 4}, false)
	})
	if n != 0 {
		t.Fatalf("AppendPayloads into a sized buffer allocated %.1f times/op", n)
	}
}

// TestBatchEncoding pins the Batch contract the links rely on: Append
// produces exactly the shape's Append* encoding (or Raw verbatim), and
// FrameBytes predicts its length exactly, so a ring can reserve the frame
// before encoding it in place.
func TestBatchEncoding(t *testing.T) {
	runs := []Run{{Dest: 4, Payloads: []uint64{1, 2}}, {Dest: 5, Payloads: []uint64{3}}}
	items := []Item{{Dest: 1, Val: 10}, {Dest: 2, Val: 20}}
	raw := AppendItems(nil, 7, 8, items, false)
	cases := []struct {
		b    Batch
		want []byte
	}{
		{Batch{Kind: KindPayloads, Full: true, Source: 3, Dest: 9, Payloads: []uint64{5, 6, 7}},
			AppendPayloads(nil, 3, 9, []uint64{5, 6, 7}, true)},
		{Batch{Kind: KindItems, Source: 3, Dest: 1, Items: items}, AppendItems(nil, 3, 1, items, false)},
		{Batch{Kind: KindRuns, Full: true, Source: 3, Dest: 1, Runs: runs}, AppendRuns(nil, 3, 1, runs, true)},
		{Batch{Kind: KindPayloads, Dest: 99, Raw: raw}, raw},
	}
	for _, c := range cases {
		got := c.b.Append([]byte{0xff})[1:]
		if !bytes.Equal(got, c.want) {
			t.Errorf("%v batch encoded %x, want %x", c.b.Kind, got, c.want)
		}
		if n := c.b.FrameBytes(); n != len(c.want) {
			t.Errorf("%v batch FrameBytes %d, encoding is %d bytes", c.b.Kind, n, len(c.want))
		}
	}
}
