package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the decoder: it must either return a
// structurally valid frame or an error — never panic, never over-read, and
// a frame it accepts must re-encode to the identical bytes (canonical form).
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(AppendPayloads(nil, 1, 2, []uint64{3, 4}, true))
	f.Add(AppendItems(nil, 0, 1, []Item{{Dest: 5, Val: 6}}, false))
	f.Add(AppendRuns(nil, 2, 0, []Run{{Dest: 1, Payloads: []uint64{7}}, {Dest: 2}}, false))
	f.Add(AppendControl(nil, 0, 3, []byte(`{"round":1}`)))
	// A corrupt runs frame: inner count inflated past the payload.
	bad := AppendRuns(nil, 0, 0, []Run{{Dest: 1, Payloads: []uint64{5}}}, false)
	binary.LittleEndian.PutUint32(bad[24:], 1<<20)
	f.Add(bad)
	// A two-frame relay bundle.
	inner := AppendPayloads(nil, 1, 2, []uint64{3}, false)
	inner = AppendItems(inner, 1, 3, []Item{{Dest: 0, Val: 9}}, true)
	f.Add(AppendBundle(nil, 1, 4, 2, inner))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := Decode(data, 1<<20)
		if err != nil {
			return
		}
		if n < prefixBytes+HeaderBytes || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		// Re-encode the decoded frame; it must reproduce the consumed bytes.
		var out []byte
		switch fr.Kind {
		case KindPayloads:
			out = AppendPayloads(nil, fr.Source, fr.Dest, fr.Payloads(make([]uint64, fr.Count)), fr.Full())
		case KindItems:
			out = AppendItems(nil, fr.Source, fr.Dest, fr.Items(make([]Item, fr.Count)), fr.Full())
		case KindRuns:
			runs := fr.Runs(nil, func(n int) []uint64 { return make([]uint64, n) })
			out = AppendRuns(nil, fr.Source, fr.Dest, runs, fr.Full())
		case KindControl:
			out = AppendControl(nil, fr.Source, fr.Dest, fr.Payload)
		case KindBundle:
			var rebuilt []byte
			if err := fr.EachFrame(func(raw []byte, _ Frame) error {
				rebuilt = append(rebuilt, raw...)
				return nil
			}); err != nil {
				t.Fatalf("EachFrame on accepted bundle: %v", err)
			}
			out = AppendBundle(nil, fr.Source, fr.Dest, int(fr.Count), rebuilt)
		default:
			t.Fatalf("decoder accepted unknown kind %v", fr.Kind)
		}
		// The encoders emit only the canonical flag values (0, or FlagFull on
		// batch frames); compare byte-exactness only for frames in that set.
		canonical := fr.Flags == 0 ||
			(fr.Flags == FlagFull && fr.Kind != KindControl && fr.Kind != KindBundle)
		if canonical && !bytes.Equal(out, data[:n]) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data[:n], out)
		}
	})
}

// FuzzBundle builds relay bundles from fuzzer-chosen batch contents and
// checks that the envelope round-trips: every inner frame comes back in
// order, byte-identical, with its original endpoints — and that corrupting
// the inner framing is always rejected.
func FuzzBundle(f *testing.F) {
	f.Add(uint32(0), uint32(1), []byte{}, uint8(1))
	f.Add(uint32(2), uint32(3), bytes.Repeat([]byte{0x5A}, 64), uint8(3))
	f.Add(uint32(1<<31), uint32(0), []byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2))

	f.Fuzz(func(t *testing.T, source, dest uint32, raw []byte, nFrames uint8) {
		// Build up to nFrames inner frames, cycling the batch shapes.
		var inner []byte
		var rawFrames [][]byte
		for i := 0; i < int(nFrames%8); i++ {
			var fr []byte
			switch i % 3 {
			case 0:
				payloads := make([]uint64, len(raw)/8)
				for j := range payloads {
					payloads[j] = binary.LittleEndian.Uint64(raw[8*j:])
				}
				fr = AppendPayloads(nil, source, dest+uint32(i), payloads, i%2 == 0)
			case 1:
				items := make([]Item, len(raw)/itemBytes)
				for j := range items {
					items[j] = Item{
						Dest: binary.LittleEndian.Uint32(raw[itemBytes*j:]),
						Val:  binary.LittleEndian.Uint64(raw[itemBytes*j+4:]),
					}
				}
				fr = AppendItems(nil, source, dest+uint32(i), items, false)
			case 2:
				fr = AppendControl(nil, source, dest+uint32(i), raw)
			}
			inner = append(inner, fr...)
			rawFrames = append(rawFrames, fr)
		}

		buf := AppendBundle(nil, source, dest, len(rawFrames), inner)
		if len(buf) != BundleFrameBytes(len(inner)) {
			t.Fatalf("encoded %d bytes, BundleFrameBytes says %d", len(buf), BundleFrameBytes(len(inner)))
		}
		fb, n, err := Decode(buf, 0)
		if err != nil {
			t.Fatalf("decode bundle: %v", err)
		}
		if n != len(buf) || fb.Kind != KindBundle || int(fb.Count) != len(rawFrames) {
			t.Fatalf("bundle header: consumed %d/%d, %+v", n, len(buf), fb.Header)
		}
		i := 0
		err = fb.EachFrame(func(rawf []byte, inf Frame) error {
			if !bytes.Equal(rawf, rawFrames[i]) {
				t.Fatalf("inner frame %d raw bytes differ", i)
			}
			if inf.Source != source || inf.Dest != dest+uint32(i) {
				t.Fatalf("inner frame %d endpoints (%d,%d), want (%d,%d)",
					i, inf.Source, inf.Dest, source, dest+uint32(i))
			}
			i++
			return nil
		})
		if err != nil || i != len(rawFrames) {
			t.Fatalf("EachFrame: err=%v, iterated %d of %d", err, i, len(rawFrames))
		}

		// Any single-byte corruption of an inner length prefix, or a wrong
		// frame count, must be rejected — never mis-framed.
		if len(rawFrames) > 0 {
			c := bytes.Clone(buf)
			binary.LittleEndian.PutUint32(c[16:], fb.Count+1)
			if _, _, err := Decode(c, 0); err == nil {
				t.Fatal("decoder accepted a bundle with an inflated frame count")
			}
			c2 := bytes.Clone(buf)
			binary.LittleEndian.PutUint32(c2[prefixBytes+HeaderBytes:], 1<<30)
			if _, _, err := Decode(c2, 0); err == nil {
				t.Fatal("decoder accepted a bundle with a corrupt inner prefix")
			}
		}
	})
}

// FuzzFrameRoundTrip builds frames from fuzzer-chosen batch contents and
// checks exact round-trips through encode -> stream reader -> decode.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), []byte{}, false)
	f.Add(uint32(1), uint32(2), []byte{1, 2, 3, 4, 5, 6, 7, 8}, true)
	f.Add(uint32(1<<31), uint32(7), bytes.Repeat([]byte{0xAB}, 96), false)

	f.Fuzz(func(t *testing.T, source, dest uint32, raw []byte, full bool) {
		// Derive the three batch shapes from the same raw bytes.
		payloads := make([]uint64, len(raw)/8)
		for i := range payloads {
			payloads[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		items := make([]Item, len(raw)/itemBytes)
		for i := range items {
			items[i] = Item{
				Dest: binary.LittleEndian.Uint32(raw[itemBytes*i:]),
				Val:  binary.LittleEndian.Uint64(raw[itemBytes*i+4:]),
			}
		}
		var runs []Run
		for i := 0; i < len(payloads); {
			n := 1 + int(payloads[i]%3)
			if n > len(payloads)-i {
				n = len(payloads) - i
			}
			runs = append(runs, Run{Dest: dest + uint32(len(runs)), Payloads: payloads[i : i+n]})
			i += n
		}

		var stream []byte
		stream = AppendPayloads(stream, source, dest, payloads, full)
		stream = AppendItems(stream, source, dest, items, full)
		stream = AppendRuns(stream, source, dest, runs, full)
		stream = AppendControl(stream, source, dest, raw)

		r := NewReader(bytes.NewReader(stream), 0)

		fp, err := r.Next()
		if err != nil || fp.Kind != KindPayloads || int(fp.Count) != len(payloads) || fp.Full() != full {
			t.Fatalf("payloads frame: %+v err=%v", fp.Header, err)
		}
		got := fp.Payloads(make([]uint64, fp.Count))
		for i := range payloads {
			if got[i] != payloads[i] {
				t.Fatalf("payload %d: %d != %d", i, got[i], payloads[i])
			}
		}

		fi, err := r.Next()
		if err != nil || fi.Kind != KindItems || int(fi.Count) != len(items) {
			t.Fatalf("items frame: %+v err=%v", fi.Header, err)
		}
		gi := fi.Items(make([]Item, fi.Count))
		for i := range items {
			if gi[i] != items[i] {
				t.Fatalf("item %d: %+v != %+v", i, gi[i], items[i])
			}
		}

		frn, err := r.Next()
		if err != nil || frn.Kind != KindRuns || int(frn.Count) != len(runs) {
			t.Fatalf("runs frame: %+v err=%v", frn.Header, err)
		}
		for ri, r := range frn.Runs(nil, func(n int) []uint64 { return make([]uint64, n) }) {
			if r.Dest != runs[ri].Dest || len(r.Payloads) != len(runs[ri].Payloads) {
				t.Fatalf("run %d: (%d,%d) != (%d,%d)", ri, r.Dest, len(r.Payloads), runs[ri].Dest, len(runs[ri].Payloads))
			}
			for j, v := range r.Payloads {
				if v != runs[ri].Payloads[j] {
					t.Fatalf("run %d payload %d: %d != %d", ri, j, v, runs[ri].Payloads[j])
				}
			}
		}

		fc, err := r.Next()
		if err != nil || fc.Kind != KindControl || !bytes.Equal(fc.Payload, raw) {
			t.Fatalf("control frame: %+v err=%v", fc.Header, err)
		}
	})
}
