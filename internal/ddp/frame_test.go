package ddp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"argo/internal/graph"
	"argo/internal/tensor/half"
)

// TestReadFrameBoundsAllocation: a header claiming the largest legal
// frame followed by EOF must fail without allocating anywhere near the
// claimed size — readFrame allocates as bytes arrive, not as promised.
func TestReadFrameBoundsAllocation(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated maxFrame frame read without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Fatalf("truncated frame allocated %d bytes", grew)
	}
}

// TestReadFrameMultiChunk: frames larger than one read chunk (and
// empty frames) round-trip exactly; truncation inside a later chunk
// fails.
func TestReadFrameMultiChunk(t *testing.T) {
	for _, n := range []int{0, 1, frameChunk, frameChunk + 1, 2*frameChunk + frameChunk/2} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
		wire := buf.Bytes()
		got, err := readFrame(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("%d-byte frame: %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte frame read back differently", n)
		}
		if n > 0 {
			if _, err := readFrame(bytes.NewReader(wire[:len(wire)-1])); err == nil {
				t.Fatalf("%d-byte frame missing its last byte read without error", n)
			}
		}
	}
}

// wireSeeds returns encodeRequest and encodeResponse payloads covering
// every message kind and both wire dtypes.
func wireSeeds() (reqs, resps [][]byte) {
	for _, dt := range []graph.FeatDtype{graph.DtypeF32, graph.DtypeF16} {
		reqs = append(reqs,
			encodeRequest(&Request{From: 1, Kind: MsgFeatures, Dtype: dt, IDs: []graph.NodeID{3, 1, 4}}),
			encodeRequest(&Request{From: 0, Kind: MsgLabels, Dtype: dt, IDs: []graph.NodeID{9}}),
			encodeRequest(&Request{From: 2, Kind: MsgGradients, Dtype: dt, IDs: []graph.NodeID{5, 6},
				Grad: []float32{1.5, -0.25, 0, 65504}}),
		)
		resps = append(resps,
			encodeResponse(&Response{Dtype: dt, Feat: []float32{0.5, -2, 1024, 6.103515625e-05}}, nil),
			encodeResponse(&Response{Dtype: dt, Labels: []int32{0, 7, 3}}, nil),
			encodeResponse(&Response{Dtype: dt}, nil),
		)
	}
	resps = append(resps, encodeResponse(nil, fmt.Errorf("shard went away")))
	return reqs, resps
}

// canonicalF16 rewrites the n fp16 values at b[off:] the way the half
// codec re-encodes them: every bit pattern survives a decode/encode
// round trip except NaN payloads, which canonicalise to one quiet NaN
// per sign.
func canonicalF16(b []byte, off, n int) []byte {
	out := bytes.Clone(b)
	for i := 0; i < n; i++ {
		p := out[off+2*i:]
		binary.LittleEndian.PutUint16(p, half.Bits(half.FromBits(binary.LittleEndian.Uint16(p))))
	}
	return out
}

// FuzzReadFrame: readFrame never panics on arbitrary bytes, and a frame
// it accepts re-frames to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	reqs, resps := wireSeeds()
	for _, p := range append(reqs, resps...) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, p); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("frame re-encoded to %x, read from %x", buf.Bytes(), data[:buf.Len()])
		}
	})
}

// FuzzDecodeRequest: decodeRequest never panics, and a payload it
// accepts re-encodes to the same bytes (fp16 NaN payloads canonical).
func FuzzDecodeRequest(f *testing.F) {
	reqs, _ := wireSeeds()
	for _, p := range reqs {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := decodeRequest(b)
		if err != nil {
			return
		}
		want := b
		if req.Dtype == graph.DtypeF16 {
			want = canonicalF16(b, 14+4*len(req.IDs), len(req.Grad))
		}
		if got := encodeRequest(req); !bytes.Equal(got, want) {
			t.Fatalf("request re-encoded to %x, want %x", got, want)
		}
	})
}

// FuzzDecodeResponse: decodeResponse never panics, and a payload it
// accepts re-encodes to the same bytes (fp16 NaN payloads canonical).
func FuzzDecodeResponse(f *testing.F) {
	_, resps := wireSeeds()
	for _, p := range resps {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		resp, err := decodeResponse(b)
		if err != nil {
			return
		}
		want := b
		if resp.Dtype == graph.DtypeF16 {
			want = canonicalF16(b, 6, len(resp.Feat))
		}
		if got := encodeResponse(resp, nil); !bytes.Equal(got, want) {
			t.Fatalf("response re-encoded to %x, want %x", got, want)
		}
	})
}
