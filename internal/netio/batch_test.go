package netio

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"
)

// availableKinds lists the batch implementations this platform offers.
func availableKinds(t testing.TB) []BatchKind {
	t.Helper()
	kinds := []BatchKind{BatchGeneric}
	conn := listenUDPTB(t)
	defer conn.Close()
	if _, err := newMmsgConn(conn); err == nil {
		kinds = append(kinds, BatchMmsg)
	}
	return kinds
}

func listenUDPTB(t testing.TB) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestBatchRoundTrip(t *testing.T) {
	for _, kind := range availableKinds(t) {
		t.Run(string(kind), func(t *testing.T) {
			rxConn := listenUDPTB(t)
			defer rxConn.Close()
			txConn := listenUDPTB(t)
			defer txConn.Close()
			rx, err := NewBatchConn(rxConn, kind)
			if err != nil {
				t.Fatal(err)
			}
			tx, err := NewBatchConn(txConn, kind)
			if err != nil {
				t.Fatal(err)
			}
			dst := rxConn.LocalAddr().(*net.UDPAddr).AddrPort()
			txAddr := txConn.LocalAddr().(*net.UDPAddr).AddrPort()

			const total = 10
			out := make([]Message, total)
			for i := range out {
				out[i].Buf = []byte(fmt.Sprintf("datagram-%02d", i))
				out[i].N = len(out[i].Buf)
				out[i].Addr = dst
			}
			if n, err := tx.WriteBatch(out); err != nil || n != total {
				t.Fatalf("WriteBatch = %d, %v want %d, nil", n, err, total)
			}

			in := make([]Message, total)
			for i := range in {
				in[i].Buf = make([]byte, 64)
			}
			got := 0
			rx.SetReadDeadline(time.Now().Add(2 * time.Second))
			seen := map[string]bool{}
			for got < total {
				n, err := rx.ReadBatch(in[:total-got])
				if err != nil {
					t.Fatalf("ReadBatch after %d: %v", got, err)
				}
				for i := 0; i < n; i++ {
					seen[string(in[i].Buf[:in[i].N])] = true
					want := netip.AddrPortFrom(in[i].Addr.Addr().Unmap(), in[i].Addr.Port())
					from := netip.AddrPortFrom(txAddr.Addr().Unmap(), txAddr.Port())
					if want != from {
						t.Fatalf("peer %v want %v", in[i].Addr, txAddr)
					}
				}
				got += n
			}
			for i := 0; i < total; i++ {
				if !seen[fmt.Sprintf("datagram-%02d", i)] {
					t.Fatalf("datagram %d never arrived", i)
				}
			}
		})
	}
}

func TestBatchReadDeadline(t *testing.T) {
	for _, kind := range availableKinds(t) {
		t.Run(string(kind), func(t *testing.T) {
			conn := listenUDPTB(t)
			defer conn.Close()
			bc, err := NewBatchConn(conn, kind)
			if err != nil {
				t.Fatal(err)
			}
			ms := []Message{{Buf: make([]byte, 64)}}
			bc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
			start := time.Now()
			_, err = bc.ReadBatch(ms)
			if err == nil {
				t.Fatal("read of silent socket succeeded")
			}
			ne, ok := err.(net.Error)
			if !ok || !ne.Timeout() {
				t.Fatalf("error %v (%T) is not a net timeout", err, err)
			}
			if e := time.Since(start); e > time.Second {
				t.Fatalf("deadline took %v", e)
			}
		})
	}
}

// TestBatchTryRead pins the non-blocking read: an empty socket answers
// (0, nil) at once, queued datagrams come back without a deadline, and
// — the trap the shard loop has to know about — a read deadline that
// has already passed fails the call although it would never have
// waited, until the deadline is cleared.
func TestBatchTryRead(t *testing.T) {
	for _, kind := range availableKinds(t) {
		t.Run(string(kind), func(t *testing.T) {
			rxConn := listenUDPTB(t)
			defer rxConn.Close()
			txConn := listenUDPTB(t)
			defer txConn.Close()
			rx, err := NewBatchConn(rxConn, kind)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rx.TryReadBatch(nil); errors.Is(err, ErrNoTryRead) {
				t.Skip("no non-blocking batch read on this platform")
			} else if err != nil {
				t.Fatalf("probe: %v", err)
			}
			in := make([]Message, 8)
			for i := range in {
				in[i].Buf = make([]byte, 64)
			}
			start := time.Now()
			if n, err := rx.TryReadBatch(in); n != 0 || err != nil {
				t.Fatalf("empty socket: TryReadBatch = %d, %v want 0, nil", n, err)
			}
			if e := time.Since(start); e > 100*time.Millisecond {
				t.Fatalf("empty socket: TryReadBatch took %v, it must not wait", e)
			}

			dst := rxConn.LocalAddr().(*net.UDPAddr).AddrPort()
			send := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					if _, err := txConn.WriteToUDPAddrPort([]byte(fmt.Sprintf("dg-%02d", i)), dst); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Loopback delivery is synchronous: once the sends return, the
			// datagrams are in the receive queue. More than one batch's
			// worth, so the batch bound is exercised too.
			send(11)
			got := 0
			for got < 11 {
				n, err := rx.TryReadBatch(in)
				if err != nil {
					t.Fatalf("after %d datagrams: %v", got, err)
				}
				if n == 0 {
					t.Fatalf("socket ran dry after %d of 11 datagrams", got)
				}
				for i := 0; i < n; i++ {
					if want := fmt.Sprintf("dg-%02d", got+i); string(in[i].Buf[:in[i].N]) != want {
						t.Fatalf("datagram %d = %q, want %q", got+i, in[i].Buf[:in[i].N], want)
					}
					if want := txConn.LocalAddr().(*net.UDPAddr).AddrPort(); in[i].Addr != want {
						t.Fatalf("peer %v, want %v", in[i].Addr, want)
					}
				}
				got += n
			}
			if n, err := rx.TryReadBatch(in); n != 0 || err != nil {
				t.Fatalf("drained socket: TryReadBatch = %d, %v want 0, nil", n, err)
			}

			// The trap: a deadline armed for a blocking read and since
			// passed.
			send(1)
			rx.SetReadDeadline(time.Now().Add(-time.Second))
			_, err = rx.TryReadBatch(in)
			if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
				t.Fatalf("expired deadline: TryReadBatch error = %v, want a net timeout (if the poller stopped failing such reads, the shard loop's deadline clearing can go)", err)
			}
			rx.SetReadDeadline(time.Time{})
			if n, err := rx.TryReadBatch(in); n != 1 || err != nil {
				t.Fatalf("deadline cleared: TryReadBatch = %d, %v want 1, nil", n, err)
			}
		})
	}
}

func TestBatchMmsgRequestedExplicitly(t *testing.T) {
	conn := listenUDPTB(t)
	defer conn.Close()
	bc, err := NewBatchConn(conn, BatchAuto)
	if err != nil {
		t.Fatal(err)
	}
	if got := bc.Kind(); got != BatchMmsg && got != BatchGeneric {
		t.Fatalf("auto resolved to %q", got)
	}
	if _, err := NewBatchConn(conn, BatchKind("bogus")); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

// TestWriteBatchSkipsRefused: a datagram the kernel refuses (port 0:
// EINVAL) costs only itself. The messages after it still go, and
// WriteBatch reports how many went with the refusal's error.
func TestWriteBatchSkipsRefused(t *testing.T) {
	for _, kind := range availableKinds(t) {
		t.Run(string(kind), func(t *testing.T) {
			rxConn := listenUDPTB(t)
			defer rxConn.Close()
			txConn := listenUDPTB(t)
			defer txConn.Close()
			tx, err := NewBatchConn(txConn, kind)
			if err != nil {
				t.Fatal(err)
			}
			good := rxConn.LocalAddr().(*net.UDPAddr).AddrPort()
			bad := netip.MustParseAddrPort("127.0.0.1:0")
			out := make([]Message, 3)
			for i, dst := range []netip.AddrPort{good, bad, good} {
				out[i].Buf = []byte(fmt.Sprintf("datagram-%d", i))
				out[i].N = len(out[i].Buf)
				out[i].Addr = dst
			}
			n, err := tx.WriteBatch(out)
			if n != 2 || err == nil {
				t.Fatalf("WriteBatch = %d, %v; want 2 and the refusal", n, err)
			}
			buf := make([]byte, 64)
			for _, want := range []string{"datagram-0", "datagram-2"} {
				rxConn.SetReadDeadline(time.Now().Add(2 * time.Second))
				n, _, err := rxConn.ReadFromUDPAddrPort(buf)
				if err != nil {
					t.Fatalf("waiting for %s: %v", want, err)
				}
				if string(buf[:n]) != want {
					t.Fatalf("got %q, want %q", buf[:n], want)
				}
			}
		})
	}
}

// BenchmarkBatchIO is the batched-vs-unbatched A/B: one op writes one
// batch from a sender socket and reads every datagram of it back on
// loopback. Three shapes: 32 × 512 B to one receiver; serve_fat's,
// 1,400 B datagrams in runs of 3 across 11 receivers; and 32 × 512 B to
// 32 receivers, runs of 1, where GSO must change nothing.
func BenchmarkBatchIO(b *testing.B) {
	shapes := []struct{ rcvs, run, size int }{{1, 32, 512}, {11, 3, 1400}, {32, 1, 512}}
	for _, kind := range availableKinds(b) {
		for _, sh := range shapes {
			b.Run(fmt.Sprintf("%s/%drcv_run%d_%dB", kind, sh.rcvs, sh.run, sh.size), func(b *testing.B) {
				txConn := listenUDPTB(b)
				defer txConn.Close()
				tx, err := NewBatchConn(txConn, kind)
				if err != nil {
					b.Fatal(err)
				}
				rx := make([]BatchConn, sh.rcvs)
				var out []Message
				for r := range rx {
					rxConn := listenUDPTB(b)
					defer rxConn.Close()
					if rx[r], err = NewBatchConn(rxConn, kind); err != nil {
						b.Fatal(err)
					}
					rx[r].SetReadDeadline(time.Time{})
					dst := rxConn.LocalAddr().(*net.UDPAddr).AddrPort()
					for j := 0; j < sh.run; j++ {
						out = append(out, Message{Buf: make([]byte, sh.size), N: sh.size, Addr: dst})
					}
				}
				in := make([]Message, sh.run)
				for i := range in {
					in[i].Buf = make([]byte, 2048)
				}
				b.SetBytes(int64(len(out) * sh.size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if n, err := tx.WriteBatch(out); err != nil || n != len(out) {
						b.Fatalf("WriteBatch = %d, %v", n, err)
					}
					for _, r := range rx {
						for got := 0; got < sh.run; {
							n, err := r.ReadBatch(in[:sh.run-got])
							if err != nil {
								b.Fatal(err)
							}
							got += n
						}
					}
				}
			})
		}
	}
}
