package netpq

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
	"testing/iotest"
)

// FuzzDecodeFrame pins the codec's safety contract: no byte sequence may
// make DecodeFrame panic, and anything it accepts must re-encode to the
// exact bytes it consumed (the codec is bijective on valid frames).
// Malformed length prefixes, truncated batches and oversized frames are
// all errors, never crashes — this is the boundary raw network input
// crosses first.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendFrame(nil, Frame{Op: OpHello, Req: 1, Count: Version, Payload: []byte("klsm128")}))
	f.Add(AppendFrame(nil, Frame{Op: OpInsert, Req: 2, Count: 1, Payload: make([]byte, KVLen)}))
	f.Add(AppendFrame(nil, Frame{Op: OpDeleteMin, Req: 3, Count: 8}))
	f.Add(AppendFrame(nil, Frame{Op: OpError, Req: 4, Count: ErrCodeQueue, Payload: []byte("no such queue")}))
	// Adversarial seeds: zero length, tiny length, huge length, bad version.
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4})
	f.Add([]byte{0, 0, 0, 8, 99, 2, 0, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n < LenPrefixLen+HeaderLen || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		if n > LenPrefixLen+MaxFrameLen {
			t.Fatalf("accepted frame of %d bytes, above max %d", n, LenPrefixLen+MaxFrameLen)
		}
		reenc := AppendFrame(nil, fr)
		if !bytes.Equal(reenc, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", reenc, data[:n])
		}

		// The streaming reader must agree with the buffer decoder on
		// every accepted frame.
		var sf Frame
		if rerr := ReadFrame(bytes.NewReader(data[:n]), &sf); rerr != nil {
			t.Fatalf("ReadFrame rejects what DecodeFrame accepts: %v", rerr)
		}
		if sf.Op != fr.Op || sf.Req != fr.Req || sf.Count != fr.Count || !bytes.Equal(sf.Payload, fr.Payload) {
			t.Fatalf("ReadFrame decodes %+v, DecodeFrame %+v", sf, fr)
		}

		// A KV-bearing opcode's payload must decode or error, never panic,
		// whatever the count relation.
		if fr.Op == OpInsert || fr.Op == OpDeleteMin|RespBit {
			_, _ = DecodeKVs(fr.Payload, int(fr.Count), nil)
		}
	})
}

// FuzzReadFrame drives the streaming reader with raw bytes: it must
// return an error or a frame for any prefix, never panic, and must never
// accept a frame DecodeFrame rejects. The same bytes are also read the
// way the server reads them, through a read buffer of readBufLen bytes,
// here fed one byte per read so every frame arrives split: that path must
// yield the same frame, or the same error, as the unbuffered read.
func FuzzReadFrame(f *testing.F) {
	ping := AppendFrame(nil, Frame{Op: OpPing, Req: 9, Payload: []byte("abc")})
	f.Add(ping)
	f.Add([]byte{0, 0, 0, 7, 1})
	f.Add([]byte{})
	f.Add(ping[:len(ping)-1])
	f.Add(AppendFrame(ping, Frame{Op: OpDeleteMin, Req: 10, Count: 8}))
	f.Add(AppendFrame(nil, Frame{Op: OpInsert, Req: 11, Count: MaxBatch, Payload: make([]byte, MaxPayload)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		err := ReadFrame(bytes.NewReader(data), &fr)
		var bf Frame
		berr := ReadFrame(bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(data)), readBufLen), &bf)
		if (err == nil) != (berr == nil) || err != nil && err.Error() != berr.Error() {
			t.Fatalf("buffered read returns %v, unbuffered %v", berr, err)
		}
		if err != nil {
			return
		}
		if bf.Op != fr.Op || bf.Req != fr.Req || bf.Count != fr.Count || !bytes.Equal(bf.Payload, fr.Payload) {
			t.Fatalf("buffered read decodes %+v, unbuffered %+v", bf, fr)
		}
		length := binary.BigEndian.Uint32(data)
		if _, _, err := DecodeFrame(data[:LenPrefixLen+int(length)]); err != nil {
			t.Fatalf("ReadFrame accepted what DecodeFrame rejects: %v", err)
		}
	})
}
