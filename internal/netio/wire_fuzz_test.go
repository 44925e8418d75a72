package netio

import (
	"bytes"
	"testing"
)

// fuzzSeeds returns representative valid encodings of every packet kind.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	data := make([]byte, DataHeaderLen+64)
	n, err := EncodeData(data, DataHeader{
		Seq:        1234,
		Layer:      3,
		LayerOff:   987_654,
		SendMicros: 55_555_555,
	}, make([]byte, 64))
	if err != nil {
		tb.Fatal(err)
	}
	data = data[:n]
	ack := make([]byte, AckLen)
	n, err = EncodeAck(ack, Ack{
		AckSeq:     99,
		EchoMicros: 1_000_000,
		NackLayer:  1,
		NackOff:    4096,
		NackLen:    512,
	})
	if err != nil {
		tb.Fatal(err)
	}
	ack = ack[:n]
	// A negative offset is a well-formed ACK; it is the session that must
	// refuse to retransmit for it (TestSessionRejectsNegativeNackOffset).
	negAck := make([]byte, AckLen)
	if _, err = EncodeAck(negAck, Ack{AckSeq: 100, NackLayer: 0, NackOff: -1, NackLen: 512}); err != nil {
		tb.Fatal(err)
	}
	req := make([]byte, ReqLen)
	n, err = EncodeReq(req, Req{DurationMs: 30_000})
	if err != nil {
		tb.Fatal(err)
	}
	req = req[:n]
	return [][]byte{data, ack, negAck, req}
}

// FuzzWireDecode feeds arbitrary bytes through every decoder: none may
// panic, and anything that decodes must re-encode to the same bytes
// (round-trip is what the serving path relies on).
func FuzzWireDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
		for _, cut := range []int{0, 1, 2, 3, 4, len(seed) / 2, len(seed) - 1} {
			f.Add(seed[:cut])
		}
		mut := append([]byte(nil), seed...)
		mut[0] ^= 0xFF // bad magic
		f.Add(mut)
		mut = append([]byte(nil), seed...)
		mut[2] = 200 // bad version
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		k, kerr := Kind(b)
		if h, payload, err := DecodeData(b); err == nil {
			if kerr != nil || k != KindData {
				t.Fatalf("DecodeData accepted what Kind rejected: kind=%v err=%v", k, kerr)
			}
			out := make([]byte, DataHeaderLen+len(payload))
			n, err := EncodeData(out, h, payload)
			if err != nil {
				t.Fatalf("re-encode of decoded data failed: %v", err)
			}
			// Decoders tolerate trailing bytes; the re-encoding must
			// reproduce the packet itself.
			if n > len(b) || !bytes.Equal(out[:n], b[:n]) {
				t.Fatalf("data round-trip mismatch:\n in  %x\n out %x", b, out[:n])
			}
		}
		if a, err := DecodeAck(b); err == nil {
			if kerr != nil || k != KindAck {
				t.Fatalf("DecodeAck accepted what Kind rejected: kind=%v err=%v", k, kerr)
			}
			out := make([]byte, AckLen)
			n, err := EncodeAck(out, a)
			if err != nil {
				t.Fatalf("re-encode of decoded ack failed: %v", err)
			}
			if n > len(b) || !bytes.Equal(out[:n], b[:n]) {
				t.Fatalf("ack round-trip mismatch:\n in  %x\n out %x", b, out[:n])
			}
		}
		if r, err := DecodeReq(b); err == nil {
			if kerr != nil || k != KindReq {
				t.Fatalf("DecodeReq accepted what Kind rejected: kind=%v err=%v", k, kerr)
			}
			out := make([]byte, ReqLen)
			n, err := EncodeReq(out, r)
			if err != nil {
				t.Fatalf("re-encode of decoded req failed: %v", err)
			}
			if n > len(b) || !bytes.Equal(out[:n], b[:n]) {
				t.Fatalf("req round-trip mismatch:\n in  %x\n out %x", b, out[:n])
			}
		}
	})
}

// TestWireTruncatedNeverPanics deterministically walks every prefix of
// every valid packet through every decoder — the exact shape a short
// read hands the server.
func TestWireTruncatedNeverPanics(t *testing.T) {
	for _, seed := range fuzzSeeds(t) {
		for cut := 0; cut <= len(seed); cut++ {
			b := seed[:cut]
			Kind(b)
			DecodeData(b)
			DecodeAck(b)
			DecodeReq(b)
			if cut < len(seed) {
				// No decoder may accept a strict prefix of a data/ack/req
				// packet except a decoder for a shorter kind; the packet's
				// own decoder must reject it.
				switch seed[3] {
				case KindData:
					if _, _, err := DecodeData(b); err == nil && cut < DataHeaderLen {
						t.Fatalf("DecodeData accepted %d-byte truncation", cut)
					}
				case KindAck:
					if _, err := DecodeAck(b); err == nil {
						t.Fatalf("DecodeAck accepted %d-byte truncation", cut)
					}
				case KindReq:
					if _, err := DecodeReq(b); err == nil {
						t.Fatalf("DecodeReq accepted %d-byte truncation", cut)
					}
				}
			}
		}
	}
}
